// Command quorumd runs one quorum-autoconfiguration protocol node over
// real UDP sockets, with a JSON-over-HTTP control API — the deployable
// counterpart of the simulator in cmd/quorumsim.
//
// A three-node cluster on one machine:
//
//	quorumd -id 1 -bootstrap -space 10.0.0.1-10.0.0.254 \
//	        -listen 127.0.0.1:7401 -http 127.0.0.1:8401 \
//	        -peers "2=127.0.0.1:7402,3=127.0.0.1:7403"
//	quorumd -id 2 -space 10.0.0.1-10.0.0.254 \
//	        -listen 127.0.0.1:7402 -http 127.0.0.1:8402 \
//	        -peers "1=127.0.0.1:7401,3=127.0.0.1:7403"
//	quorumd -id 3 -space 10.0.0.1-10.0.0.254 \
//	        -listen 127.0.0.1:7403 -http 127.0.0.1:8403 \
//	        -peers "1=127.0.0.1:7401,2=127.0.0.1:7402"
//
// Then: GET /v1/status, POST /v1/allocate, GET /v1/metrics on any node's
// HTTP port.
// The daemon runs until SIGINT or SIGTERM.
package main

import (
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/daemon"
	"quorumconf/internal/netstack"
	"quorumconf/internal/radio"
	"quorumconf/internal/wire"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr, nil)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "quorumd:", err)
		os.Exit(1)
	}
}

// run starts the daemon and blocks until a signal arrives or stop closes
// (tests drive stop; main leaves it nil and relies on signals).
func run(args []string, stdout, stderr io.Writer, stop <-chan struct{}) error {
	cfg, peers, err := buildConfig(args, stderr)
	if err != nil {
		return err
	}
	d, err := daemon.New(cfg)
	if err != nil {
		return err
	}
	// Peers first: Start sends the first CH_REQ, and a seed the transport
	// does not know yet would cost a joiner a whole JoinRetry.
	for id, addr := range peers {
		if err := d.AddPeer(id, addr); err != nil {
			return err
		}
	}
	if err := d.Start(); err != nil {
		return err
	}
	defer d.Kill()
	fmt.Fprintf(stdout, "quorumd: node %d up, udp=%s http=%s\n", int(cfg.ID), d.UDPAddr(), d.HTTPAddr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case s := <-sig:
		fmt.Fprintf(stdout, "quorumd: received %v, shutting down\n", s)
	case <-stop:
	}
	return nil
}

// buildConfig turns the flag set into a daemon configuration plus the
// static peer directory.
func buildConfig(args []string, stderr io.Writer) (daemon.Config, map[radio.NodeID]string, error) {
	fs := flag.NewFlagSet("quorumd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		id        = fs.Int("id", 0, "node ID (positive, unique in the cluster)")
		listen    = fs.String("listen", "127.0.0.1:7400", "UDP bind address")
		httpAddr  = fs.String("http", "127.0.0.1:8400", "HTTP control API bind address (empty disables)")
		space     = fs.String("space", "", `cluster address space as "lo-hi", e.g. "10.0.0.1-10.0.0.254"`)
		bootstrap = fs.Bool("bootstrap", false, "own the address space (exactly one per cluster)")
		peersStr  = fs.String("peers", "", `peer directory as "id=host:port,id=host:port"`)
		seedsStr  = fs.String("seeds", "", "peer IDs to request configuration from, comma-separated (default: every peer, ascending)")
		heartbeat = fs.Duration("heartbeat", 500*time.Millisecond, "REP_REQ heartbeat interval")
		suspect   = fs.Duration("suspect-after", 0, "declare a silent peer dead after this long (default 4 heartbeats)")
		quorumTO  = fs.Duration("quorum-timeout", time.Second, "quorum ballot round timeout")
		settle    = fs.Duration("reclaim-settle", time.Second, "reclamation defense window")
		replicas  = fs.Int("replication-target", 0, "desired replica-holder count including the owner; 0 replicates to every member")
		healthIvl = fs.Duration("health-interval", 0, "replica-health check interval (default 2 heartbeats; negative disables)")
		replTTL   = fs.Duration("replica-ttl", 0, "how long a REPLICA_ACK lease stays fresh (default 8 heartbeats)")
		drop      = fs.Float64("drop", 0, "chaos testing: drop outbound data frames with this probability, in [0, 1)")
		batchB    = fs.Int("batch-bytes", 0, "payload cap of one batch frame; frames queued for a peer always share a batch up to this size (0 = default, about one MTU)")
		authKey   = fs.String("auth-key", "", "cluster passphrase: seal and verify every datagram with an HMAC-SHA256 key derived from it (empty disables)")
		rateLimit = fs.Float64("rate-limit", 0, "accepted datagrams per second per remote address, in bursts of up to max(16, rate-limit) (0 disables)")
		verbose   = fs.Bool("v", false, "verbose protocol logging to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return daemon.Config{}, nil, err
	}
	if fs.NArg() > 0 {
		return daemon.Config{}, nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	// The drop probability follows the netstack's loss-rate convention,
	// including its sentinel, so misconfiguration is testable uniformly.
	if *drop < 0 || *drop >= 1 {
		return daemon.Config{}, nil, fmt.Errorf("%w: -drop %v", netstack.ErrLossRateRange, *drop)
	}
	blk, err := parseSpace(*space)
	if err != nil {
		return daemon.Config{}, nil, err
	}
	peers, err := parsePeers(*peersStr)
	if err != nil {
		return daemon.Config{}, nil, err
	}
	seeds, err := parseSeeds(*seedsStr, peers)
	if err != nil {
		return daemon.Config{}, nil, err
	}

	cfg := daemon.Config{
		ID:                radio.NodeID(*id),
		Space:             blk,
		Bootstrap:         *bootstrap,
		Seeds:             seeds,
		Listen:            *listen,
		HTTPListen:        *httpAddr,
		HeartbeatInterval: *heartbeat,
		SuspectAfter:      *suspect,
		QuorumTimeout:     *quorumTO,
		ReclaimSettle:     *settle,
		ReplicationTarget: *replicas,
		HealthInterval:    *healthIvl,
		ReplicaTTL:        *replTTL,
		DropRate:          *drop,
		BatchFlushBytes:   *batchB,
		AuthKey:           wire.DeriveKey(*authKey),
		RateLimit:         *rateLimit,
	}
	if *verbose {
		logger := log.New(stderr, "", log.Ltime|log.Lmicroseconds)
		cfg.Logf = logger.Printf
	}
	return cfg, peers, nil
}

// parseSpace parses "lo-hi" dotted quads into a block.
func parseSpace(s string) (addrspace.Block, error) {
	lo, hi, ok := strings.Cut(s, "-")
	if !ok {
		return addrspace.Block{}, fmt.Errorf(`-space %q: want "lo-hi" dotted quads`, s)
	}
	l, err := parseIPv4(lo)
	if err != nil {
		return addrspace.Block{}, fmt.Errorf("-space: %w", err)
	}
	h, err := parseIPv4(hi)
	if err != nil {
		return addrspace.Block{}, fmt.Errorf("-space: %w", err)
	}
	blk, err := addrspace.NewBlock(l, h)
	if err != nil {
		return addrspace.Block{}, fmt.Errorf("-space: %w", err)
	}
	return blk, nil
}

func parseIPv4(s string) (addrspace.Addr, error) {
	ip := net.ParseIP(strings.TrimSpace(s))
	if ip == nil {
		return 0, fmt.Errorf("bad IPv4 address %q", s)
	}
	v4 := ip.To4()
	if v4 == nil {
		return 0, fmt.Errorf("%q is not IPv4", s)
	}
	return addrspace.Addr(binary.BigEndian.Uint32(v4)), nil
}

// parsePeers parses "id=host:port,id=host:port".
func parsePeers(s string) (map[radio.NodeID]string, error) {
	peers := make(map[radio.NodeID]string)
	if strings.TrimSpace(s) == "" {
		return peers, nil
	}
	for _, part := range strings.Split(s, ",") {
		idStr, addr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf(`-peers entry %q: want "id=host:port"`, part)
		}
		id, err := strconv.Atoi(strings.TrimSpace(idStr))
		if err != nil || id <= 0 {
			return nil, fmt.Errorf("-peers entry %q: bad node ID", part)
		}
		if _, _, err := net.SplitHostPort(strings.TrimSpace(addr)); err != nil {
			return nil, fmt.Errorf("-peers entry %q: %w", part, err)
		}
		if _, dup := peers[radio.NodeID(id)]; dup {
			return nil, fmt.Errorf("-peers: duplicate node ID %d", id)
		}
		peers[radio.NodeID(id)] = strings.TrimSpace(addr)
	}
	return peers, nil
}

// parseSeeds parses "2,3"; empty means every peer, ascending.
func parseSeeds(s string, peers map[radio.NodeID]string) ([]radio.NodeID, error) {
	if strings.TrimSpace(s) == "" {
		seeds := make([]radio.NodeID, 0, len(peers))
		for id := range peers {
			seeds = append(seeds, id)
		}
		sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
		return seeds, nil
	}
	var seeds []radio.NodeID
	for _, part := range strings.Split(s, ",") {
		id, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || id <= 0 {
			return nil, fmt.Errorf("-seeds entry %q: bad node ID", part)
		}
		if _, known := peers[radio.NodeID(id)]; !known {
			return nil, fmt.Errorf("-seeds: node %d is not in -peers", id)
		}
		seeds = append(seeds, radio.NodeID(id))
	}
	return seeds, nil
}
