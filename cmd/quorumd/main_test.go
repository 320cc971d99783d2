package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"quorumconf/internal/netstack"
	"quorumconf/internal/radio"
	"quorumconf/internal/wire"
)

func TestParseSpace(t *testing.T) {
	blk, err := parseSpace("10.0.0.1-10.0.0.254")
	if err != nil {
		t.Fatal(err)
	}
	if blk.Lo != 0x0A000001 || blk.Hi != 0x0A0000FE {
		t.Errorf("parsed %v", blk)
	}
	for _, bad := range []string{"", "10.0.0.1", "10.0.0.254-10.0.0.1", "x-y", "::1-::2"} {
		if _, err := parseSpace(bad); err == nil {
			t.Errorf("parseSpace(%q) accepted", bad)
		}
	}
}

func TestParsePeers(t *testing.T) {
	peers, err := parsePeers("2=127.0.0.1:7402, 3=127.0.0.1:7403")
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 2 || peers[2] != "127.0.0.1:7402" || peers[3] != "127.0.0.1:7403" {
		t.Errorf("parsed %v", peers)
	}
	for _, bad := range []string{"x=127.0.0.1:7402", "2=nohostport", "2", "2=127.0.0.1:1,2=127.0.0.1:2", "0=127.0.0.1:1"} {
		if _, err := parsePeers(bad); err == nil {
			t.Errorf("parsePeers(%q) accepted", bad)
		}
	}
}

func TestParseSeedsDefaultsToAllPeersAscending(t *testing.T) {
	peers := map[radio.NodeID]string{5: "a:1", 2: "a:2", 9: "a:3"}
	seeds, err := parseSeeds("", peers)
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) != 3 || seeds[0] != 2 || seeds[1] != 5 || seeds[2] != 9 {
		t.Errorf("default seeds = %v", seeds)
	}
	if _, err := parseSeeds("7", peers); err == nil {
		t.Error("seed outside the peer directory accepted")
	}
}

func TestBuildConfigDropRateSentinel(t *testing.T) {
	for _, bad := range []string{"-0.5", "1", "1.5"} {
		_, _, err := buildConfig([]string{
			"-id", "1", "-bootstrap", "-space", "10.0.0.1-10.0.0.9", "-drop", bad,
		}, io.Discard)
		if !errors.Is(err, netstack.ErrLossRateRange) {
			t.Errorf("-drop %s: err = %v, want errors.Is ErrLossRateRange", bad, err)
		}
	}
	_, _, err := buildConfig([]string{
		"-id", "1", "-bootstrap", "-space", "10.0.0.1-10.0.0.9", "-drop", "0.2",
	}, io.Discard)
	if err != nil {
		t.Errorf("valid -drop rejected: %v", err)
	}
}

func TestBuildConfigErrors(t *testing.T) {
	cases := [][]string{
		{"-space", "bogus"},
		{"-id", "1", "-space", "10.0.0.1-10.0.0.9", "-peers", "zap"},
		{"-id", "1", "-space", "10.0.0.1-10.0.0.9", "-no-such-flag"},
		{"-id", "1", "-bootstrap", "-space", "10.0.0.1-10.0.0.9", "stray-arg"},
	}
	for _, args := range cases {
		if _, _, err := buildConfig(args, io.Discard); err == nil {
			t.Errorf("buildConfig(%v) accepted", args)
		}
	}
}

func TestRunHelpReturnsErrHelp(t *testing.T) {
	err := run([]string{"-h"}, io.Discard, io.Discard, nil)
	if !errors.Is(err, flag.ErrHelp) {
		t.Errorf("run(-h) = %v, want flag.ErrHelp", err)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if err := run([]string{"-id", "0", "-space", "10.0.0.1-10.0.0.9"}, io.Discard, io.Discard, nil); err == nil {
		t.Error("run with zero ID succeeded")
	}
}

// freePort reserves an ephemeral port long enough to hand its number to a
// daemon under test.
func freePort(t *testing.T, network string) int {
	t.Helper()
	switch network {
	case "udp":
		conn, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		return conn.LocalAddr().(*net.UDPAddr).Port
	default:
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		return ln.Addr().(*net.TCPAddr).Port
	}
}

// TestRunTwoNodeSmoke boots a bootstrap and a joiner through the real CLI
// entry point and waits for the joiner to configure itself over loopback.
func TestRunTwoNodeSmoke(t *testing.T) {
	udp1, udp2 := freePort(t, "udp"), freePort(t, "udp")
	http1, http2 := freePort(t, "tcp"), freePort(t, "tcp")
	addr := func(port int) string { return fmt.Sprintf("127.0.0.1:%d", port) }

	stop := make(chan struct{})
	var wg sync.WaitGroup
	start := func(args ...string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := run(args, io.Discard, io.Discard, stop); err != nil {
				t.Errorf("run(%v): %v", args, err)
			}
		}()
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()

	common := []string{
		"-space", "10.1.0.1-10.1.0.32",
		"-heartbeat", "60ms", "-quorum-timeout", "400ms", "-reclaim-settle", "200ms",
	}
	start(append([]string{
		"-id", "1", "-bootstrap",
		"-listen", addr(udp1), "-http", addr(http1),
		"-peers", "2=" + addr(udp2),
	}, common...)...)
	start(append([]string{
		"-id", "2",
		"-listen", addr(udp2), "-http", addr(http2),
		"-peers", "1=" + addr(udp1),
	}, common...)...)

	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + addr(http2) + "/v1/status")
		if err == nil {
			var v struct {
				Joined bool   `json:"joined"`
				IP     string `json:"ip"`
			}
			err := json.NewDecoder(resp.Body).Decode(&v)
			resp.Body.Close()
			if err == nil && v.Joined {
				if !strings.HasPrefix(v.IP, "10.1.0.") {
					t.Errorf("joiner IP = %q, want inside 10.1.0.0/24", v.IP)
				}
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatal("joiner never configured itself through the CLI path")
}

func TestBuildConfigHardeningFlags(t *testing.T) {
	cfg, _, err := buildConfig([]string{
		"-id", "1", "-bootstrap", "-space", "10.0.0.1-10.0.0.9",
		"-auth-key", "hunter2", "-rate-limit", "50",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if want := wire.DeriveKey("hunter2"); !bytes.Equal(cfg.AuthKey, want) {
		t.Errorf("AuthKey = %x, want DeriveKey(passphrase) = %x", cfg.AuthKey, want)
	}
	if cfg.RateLimit != 50 {
		t.Errorf("rate limit = %v, want 50", cfg.RateLimit)
	}

	cfg, _, err = buildConfig([]string{
		"-id", "1", "-bootstrap", "-space", "10.0.0.1-10.0.0.9",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.AuthKey != nil {
		t.Error("AuthKey set without -auth-key")
	}
}
