package baseline_test

import (
	"testing"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/baseline"
	"quorumconf/internal/baseline/buddy"
	"quorumconf/internal/baseline/ctree"
	"quorumconf/internal/baseline/manetconf"
	"quorumconf/internal/protocol"
)

func TestNewValidation(t *testing.T) {
	rt, err := protocol.NewRuntime(protocol.RuntimeConfig{Seed: 1, TransmissionRange: 150})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		new  func(*protocol.Runtime, baseline.Params) (protocol.Protocol, error)
	}{
		{"manetconf", func(rt *protocol.Runtime, p baseline.Params) (protocol.Protocol, error) { return manetconf.New(rt, p) }},
		{"buddy", func(rt *protocol.Runtime, p baseline.Params) (protocol.Protocol, error) { return buddy.New(rt, p) }},
		{"ctree", func(rt *protocol.Runtime, p baseline.Params) (protocol.Protocol, error) { return ctree.New(rt, p) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			if _, err := c.new(nil, baseline.Params{}); err == nil {
				t.Error("nil runtime accepted")
			}
			if _, err := c.new(rt, baseline.Params{Space: addrspace.Block{Lo: 9, Hi: 9}}); err == nil {
				t.Error("tiny space accepted")
			}
			p, err := c.new(rt, baseline.Params{})
			if err != nil {
				t.Fatal(err)
			}
			if p.Name() != c.name {
				t.Errorf("Name = %q", p.Name())
			}
			if _, ok := p.IP(42); ok {
				t.Error("unknown node has an IP")
			}
			if p.IsConfigured(42) {
				t.Error("unknown node configured")
			}
		})
	}
}
