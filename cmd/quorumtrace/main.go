// Command quorumtrace renders protocol traces for humans.
//
// Its one subcommand, spans, reconstructs causal timelines: it reads an
// obs JSONL event stream (quorumsim -trace output, or a /v1/trace ring
// dumped one event per line), groups events by their span identifier, and
// prints each allocation/reclamation/join as an ordered hop list with
// per-hop durations:
//
//	quorumtrace spans -in events.jsonl
//	quorumsim -trace /dev/stdout | quorumtrace spans
//
// The paper's Table 1 message exchange is quorumsim -fig table1.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"quorumconf/internal/obs"
)

func main() {
	if len(os.Args) < 2 || os.Args[1] != "spans" {
		fmt.Fprintln(os.Stderr, "usage: quorumtrace spans [-in events.jsonl]")
		os.Exit(2)
	}
	os.Exit(runSpans(os.Args[2:]))
}

// runSpans implements `quorumtrace spans`: decode JSONL events, stitch
// them into span timelines, render.
func runSpans(args []string) int {
	fs := flag.NewFlagSet("spans", flag.ContinueOnError)
	in := fs.String("in", "", "JSONL event file to read (default stdin)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	r := io.Reader(os.Stdin)
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintln(os.Stderr, "quorumtrace:", err)
			return 1
		}
		defer f.Close()
		r = f
	}
	events, err := readEvents(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "quorumtrace:", err)
		return 1
	}
	fmt.Print(formatSpans(obs.BuildSpans(events)))
	return 0
}

// readEvents decodes one obs.Event per non-empty line. A malformed line
// fails the whole read — a truncated dump should be loud, not quietly
// missing its tail.
func readEvents(r io.Reader) ([]obs.Event, error) {
	var events []obs.Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := strings.TrimSpace(sc.Text())
		if raw == "" {
			continue
		}
		var e obs.Event
		if err := json.Unmarshal([]byte(raw), &e); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return events, nil
}

// formatSpans renders each timeline as a header plus one indented line per
// hop, with the elapsed time since the previous hop on the left margin.
func formatSpans(spans []obs.SpanTimeline) string {
	if len(spans) == 0 {
		return "no spanned events\n"
	}
	var b strings.Builder
	for i, tl := range spans {
		if i > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "span %s  origin=node %d  hops=%d  duration=%s\n",
			obs.FormatSpan(tl.Span), int(tl.Origin()), len(tl.Hops), fmtMicros(tl.Duration()))
		for j, hop := range tl.Hops {
			e := hop.Event
			lead := " " + fmtMicros(hop.SincePrev)
			if j == 0 {
				lead = " start"
			}
			fmt.Fprintf(&b, "  %-10s %-16s node=%d", lead, e.Kind, int(e.Node))
			if e.Peer != 0 {
				fmt.Fprintf(&b, " peer=%d", int(e.Peer))
			}
			if e.Addr != 0 {
				fmt.Fprintf(&b, " addr=%v", e.Addr)
			}
			if e.Detail != "" {
				fmt.Fprintf(&b, " (%s)", e.Detail)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// fmtMicros renders a microsecond count compactly (µs below 1ms, ms
// above).
func fmtMicros(us int64) string {
	if us < 0 {
		return fmt.Sprintf("%dµs", us)
	}
	if us < 1000 {
		return fmt.Sprintf("+%dµs", us)
	}
	return fmt.Sprintf("+%.1fms", float64(us)/1000)
}
