package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"quorumconf/internal/experiment"
)

func TestRunTable1(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-fig", "table1"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"CH_REQ", "QUORUM_CLT", "CH_ACK"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 output missing %q", want)
		}
	}
}

func TestRunLayout(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-fig", "4", "-nodes", "30", "-seed", "3"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "fig4") || !strings.Contains(b.String(), "head") {
		t.Errorf("layout output wrong:\n%.200s", b.String())
	}
}

func TestRunSingleFigureCSV(t *testing.T) {
	var b strings.Builder
	// Tiny but real: fig11 sweeps speeds at nn=150; use fig5 with 1 round
	// would still run 4 sizes... fig 12 at default MidSize is heavy too.
	// The cheapest real figure at default config is fig5 with 1 round.
	if err := run([]string{"-fig", "5", "-rounds", "1", "-format", "csv"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "nodes,quorum,manetconf") {
		t.Errorf("CSV header missing:\n%.200s", out)
	}
	if !strings.Contains(out, "# fig5") {
		t.Error("CSV comment header missing")
	}
}

// TestRunFormats pins which -format each kind of -fig renders: a catalog
// figure as a table or CSV, Table 1 as a table only, and the Fig 4 layout
// as a table or an SVG drawing. Any other pairing is an error, not a
// silent fallback to the table.
func TestRunFormats(t *testing.T) {
	accepted := []struct {
		fig, format, want string
	}{
		{"ablation-td", "table", "reclamation hops     failed ballots"},
		{"ablation-td", "csv", "Td (s),reclamation hops,failed ballots"},
		{"table1", "table", "QUORUM_CLT"},
		{"4", "table", "# fig4"},
		{"4", "svg", "<svg"},
	}
	for _, c := range accepted {
		var b strings.Builder
		if err := run([]string{"-fig", c.fig, "-format", c.format, "-rounds", "1", "-nodes", "20"}, &b); err != nil {
			t.Errorf("-fig %s -format %s: %v", c.fig, c.format, err)
		} else if !strings.Contains(b.String(), c.want) {
			t.Errorf("-fig %s -format %s output lacks %q:\n%.300s", c.fig, c.format, c.want, b.String())
		}
	}
	rejected := []struct{ fig, format string }{
		{"ablation-td", "svg"},
		{"all", "svg"},
		{"table1", "csv"},
		{"table1", "svg"},
		{"4", "csv"},
		{"ablation-td", "yaml"},
		{"table1", "yaml"},
		{"4", "yaml"},
	}
	for _, c := range rejected {
		var b strings.Builder
		if err := run([]string{"-fig", c.fig, "-format", c.format}, &b); err == nil {
			t.Errorf("-fig %s -format %s accepted", c.fig, c.format)
		}
		if b.Len() != 0 {
			t.Errorf("-fig %s -format %s printed output before failing", c.fig, c.format)
		}
	}
}

// TestRunUnknownFigure pins that an unknown -fig is refused with a message
// naming every key quorumsim accepts: its own and the figure catalog's.
func TestRunUnknownFigure(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-fig", "bogus"}, &b); err == nil {
		t.Error("bogus figure accepted")
	}
	err := run([]string{"-fig", "99"}, &b)
	if err == nil {
		t.Fatal("unknown figure accepted")
	}
	_, keys := experiment.Lookup("")
	want := []string{"table1", "t1", "4", "fig4", "layout", "5", "fig14", "loss", "byzantine", "ablation-td", "all", "ablations"}
	for _, entry := range keys {
		want = append(want, strings.Split(entry, "/")...)
	}
	for _, k := range want {
		if !strings.Contains(err.Error(), k) {
			t.Errorf("error %q does not name key %q", err, k)
		}
	}
}

// TestRunCatalogEntryByID runs an entry that only its Figure ID selects.
func TestRunCatalogEntryByID(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-fig", "ablation-td", "-rounds", "1", "-format", "csv"}, &b); err != nil {
		t.Fatal(err)
	}
	if out := b.String(); !strings.Contains(out, "# ablation-td") || !strings.Contains(out, "Td (s),reclamation hops,failed ballots") {
		t.Errorf("ablation-td output wrong:\n%.300s", out)
	}
}

func TestRunBadFlag(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-nope"}, &b); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestRunRejectsBadOptionValues(t *testing.T) {
	cases := [][]string{
		{"-format", "yaml"},
		{"-rounds", "0"},
		{"-rounds", "-3"},
		{"-nodes", "0"},
		{"-fig", "5", "stray-positional"},
		{"-parallel", "-2"},
		{"-cpuprofile", "/no/such/dir/prof.out", "-fig", "table1"},
		{"-memprofile", "/no/such/dir/prof.out", "-fig", "table1"},
	}
	for _, args := range cases {
		var b strings.Builder
		if err := run(args, &b); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}

// TestRunProfilesAndParallel exercises the happy path of the pprof and
// worker-pool flags together: a tiny figure run must leave non-empty
// profile files behind.
func TestRunProfilesAndParallel(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	var b strings.Builder
	args := []string{"-fig", "5", "-rounds", "1", "-parallel", "4", "-cpuprofile", cpu, "-memprofile", mem}
	if err := run(args, &b); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

// TestHelpIsErrHelp pins the contract main relies on to exit 0 for -h while
// every real error path exits 1.
func TestHelpIsErrHelp(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-h"}, &b); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("run(-h) = %v, want flag.ErrHelp", err)
	}
	if err := run([]string{"-fig", "99"}, &b); err == nil || errors.Is(err, flag.ErrHelp) {
		t.Errorf("run(bad fig) = %v, want a non-help error", err)
	}
}

// TestMainExitCodes runs the built binary end to end: -h exits zero, bad
// flags and bad figures exit non-zero.
func TestMainExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary; skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "quorumsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cases := []struct {
		args []string
		want int
	}{
		{[]string{"-h"}, 0},
		{[]string{"-fig", "table1"}, 0},
		{[]string{"-fig", "99"}, 1},
		{[]string{"-format", "yaml"}, 1},
		{[]string{"-fig", "table1", "-format", "csv"}, 1},
		{[]string{"-nope"}, 1},
		{[]string{"-rounds", "0"}, 1},
	}
	for _, c := range cases {
		cmd := exec.Command(bin, c.args...)
		cmd.Stdout, cmd.Stderr = io.Discard, io.Discard
		err := cmd.Run()
		got := 0
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			got = exit.ExitCode()
		} else if err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		if got != c.want {
			t.Errorf("quorumsim %v exited %d, want %d", c.args, got, c.want)
		}
	}
}
