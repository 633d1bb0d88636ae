// Command d2ctl is a client for a live D2 cluster: volume file operations
// over the D2-FS API. The volume keypair is kept in a local file so
// successive invocations address the same volume.
//
//	d2ctl -seeds 127.0.0.1:7001 mkvol home
//	d2ctl -seeds 127.0.0.1:7001 -vol home mkdir /docs
//	d2ctl -seeds 127.0.0.1:7001 -vol home write /docs/a.txt "hello d2"
//	d2ctl -seeds 127.0.0.1:7001 -vol home cat /docs/a.txt
//	d2ctl -seeds 127.0.0.1:7001 -vol home -v cat /big.bin > big.bin
//
// cat streams through the windowed-readahead pipeline (bytes flow before
// the tail is fetched); -v prints TTFB and sustained MB/s to stderr.
//
//	d2ctl -seeds 127.0.0.1:7001 -vol home ls /docs
//	d2ctl -seeds 127.0.0.1:7001 -vol home mv /docs/a.txt /docs/b.txt
//	d2ctl -seeds 127.0.0.1:7001 -vol home rm /docs/b.txt
//
// Cluster observability (scrapes every ring member over the DHT
// transport and merges their metric snapshots; with -vol the volume is
// read through the normal client path first, so the report includes a
// live lookup-cache hit rate):
//
//	d2ctl -seeds 127.0.0.1:7001 stats
//	d2ctl -seeds 127.0.0.1:7001 -vol home stats
//	d2ctl -seeds 127.0.0.1:7001 top
//
// Cluster health (scrapes every ring member's health engine; watch shows
// true per-second rates derived from each node's metric history, doctor
// prints a one-shot report naming the failing node and check):
//
//	d2ctl -seeds 127.0.0.1:7001 watch
//	d2ctl -seeds 127.0.0.1:7001 -interval 5s -n 3 watch
//	d2ctl -seeds 127.0.0.1:7001 doctor
//
// Placement census (scrapes every ring member's census sweeper and
// merges the reports; frag prints the §5 locality and fragmentation
// scores with per-volume run-length distributions, map draws the ring
// as ASCII keyspace arcs with per-node load and role heat; -o json
// emits the merged report for scripts; doctor and frag exit non-zero
// when the cluster is failing):
//
//	d2ctl -seeds 127.0.0.1:7001 frag
//	d2ctl -seeds 127.0.0.1:7001 -vol home frag
//	d2ctl -seeds 127.0.0.1:7001 -o json frag
//	d2ctl -seeds 127.0.0.1:7001 map
//
// Request tracing (reads the file under a forced trace, scrapes every
// ring member for its spans, and prints the assembled cross-node tree;
// the optional second argument exports Perfetto-loadable JSON):
//
//	d2ctl -seeds 127.0.0.1:7001 -vol home trace /docs/a.txt
//	d2ctl -seeds 127.0.0.1:7001 -vol home trace /docs/a.txt trace.json
package main

import (
	"context"
	"crypto/ed25519"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	d2 "github.com/defragdht/d2"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "d2ctl:", err)
		os.Exit(1)
	}
}

func run() error {
	seeds := flag.String("seeds", "127.0.0.1:7001", "comma-separated node addresses")
	volName := flag.String("vol", "", "volume name")
	keyFile := flag.String("keyfile", "d2ctl.key", "volume keypair file")
	verbose := flag.Bool("v", false, "cat: print TTFB and throughput to stderr")
	interval := flag.Duration("interval", 2*time.Second, "watch: refresh period")
	count := flag.Int("n", 0, "watch: number of refreshes (0 = until interrupted)")
	output := flag.String("o", "", "doctor/frag/map: output format (json = machine-readable report)")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		return fmt.Errorf("usage: d2ctl [flags] mkvol|mkdir|write|cat|ls|stat|mv|rm|trace|stats|top|watch|doctor|frag|map ...")
	}
	jsonOut := *output == "json"
	if *output != "" && !jsonOut {
		return fmt.Errorf("unknown output format %q (want json)", *output)
	}

	client, err := d2.ConnectTCP(strings.Split(*seeds, ","), 3)
	if err != nil {
		return err
	}
	defer client.Close()
	ctx := context.Background()

	cmd := args[0]
	switch cmd {
	case "stats", "top":
		// With -vol, read the whole volume through the normal client path
		// first so the report includes a live lookup-cache hit rate.
		if *volName != "" {
			vol, err := loadVolume(ctx, client, *volName, *keyFile)
			if err != nil {
				return err
			}
			if err := warmRead(ctx, vol, "/"); err != nil {
				return err
			}
		}
		if cmd == "stats" {
			return runStats(ctx, client)
		}
		return runTop(ctx, client)
	case "doctor":
		return runDoctor(ctx, client, jsonOut)
	case "watch":
		return runWatch(ctx, client, *interval, *count)
	case "frag":
		// The census labels volumes by volume-ID hex. A trailing argument
		// filters on that label directly; -vol resolves the human name
		// through the local keypair file instead.
		volFilter := ""
		if len(args) > 1 {
			volFilter = args[1]
		} else if *volName != "" {
			vol, err := loadVolume(ctx, client, *volName, *keyFile)
			if err != nil {
				return err
			}
			volFilter = vol.VolumeID().String()
		}
		return runFrag(ctx, client, volFilter, jsonOut)
	case "map":
		return runMap(ctx, client, jsonOut)
	}
	if cmd == "mkvol" {
		if len(args) != 2 {
			return fmt.Errorf("usage: mkvol <name>")
		}
		_, priv, err := d2.GenerateKey()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*keyFile, []byte(hex.EncodeToString(priv)), 0o600); err != nil {
			return err
		}
		vol, err := client.CreateVolume(ctx, args[1], priv, d2.VolumeOptions{})
		if err != nil {
			return err
		}
		if err := vol.Sync(ctx); err != nil {
			return err
		}
		fmt.Printf("volume %q created; key saved to %s\n", args[1], *keyFile)
		return nil
	}

	if *volName == "" {
		return fmt.Errorf("-vol is required for %s", cmd)
	}
	vol, err := loadVolume(ctx, client, *volName, *keyFile)
	if err != nil {
		return err
	}

	switch cmd {
	case "trace":
		if len(args) != 2 && len(args) != 3 {
			return fmt.Errorf("usage: trace <path> [export.json]")
		}
		export := ""
		if len(args) == 3 {
			export = args[2]
		}
		return runTrace(ctx, client, vol, args[1], export)
	case "mkdir":
		if len(args) != 2 {
			return fmt.Errorf("usage: mkdir <path>")
		}
		if err := vol.MkdirAll(ctx, args[1]); err != nil {
			return err
		}
	case "write":
		if len(args) != 3 {
			return fmt.Errorf("usage: write <path> <content>")
		}
		if err := vol.WriteFile(ctx, args[1], []byte(args[2])); err != nil {
			return err
		}
	case "cat":
		if len(args) != 2 {
			return fmt.Errorf("usage: cat <path>")
		}
		if err := runCat(ctx, vol, args[1], *verbose); err != nil {
			return err
		}
	case "ls":
		if len(args) != 2 {
			return fmt.Errorf("usage: ls <path>")
		}
		infos, err := vol.ReadDir(ctx, args[1])
		if err != nil {
			return err
		}
		for _, fi := range infos {
			kind := "f"
			if fi.IsDir {
				kind = "d"
			}
			fmt.Printf("%s %10d %s\n", kind, fi.Size, fi.Name)
		}
	case "stat":
		if len(args) != 2 {
			return fmt.Errorf("usage: stat <path>")
		}
		fi, err := vol.Stat(ctx, args[1])
		if err != nil {
			return err
		}
		fmt.Printf("%+v\n", fi)
	case "mv":
		if len(args) != 3 {
			return fmt.Errorf("usage: mv <old> <new>")
		}
		if err := vol.Rename(ctx, args[1], args[2]); err != nil {
			return err
		}
	case "rm":
		if len(args) != 2 {
			return fmt.Errorf("usage: rm <path>")
		}
		if err := vol.Remove(ctx, args[1]); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
	return vol.Sync(ctx)
}

// runCat streams a file to stdout through the windowed-readahead read
// path, so the first bytes print before the tail is fetched. With -v the
// pipeline's stats (bytes, TTFB, sustained throughput, stalls and wasted
// prefetch blocks) go to stderr where they cannot corrupt piped output.
func runCat(ctx context.Context, vol *d2.Volume, path string, verbose bool) error {
	r, err := vol.ReadStream(ctx, path)
	if err != nil {
		return err
	}
	_, cerr := io.Copy(os.Stdout, r)
	if err := r.Close(); cerr == nil {
		cerr = err
	}
	if verbose {
		if st, ok := r.(d2.StatStream); ok {
			s := st.Stats()
			fmt.Fprintf(os.Stderr, "d2ctl: %d bytes, ttfb %s, %.2f MB/s, stalls %d, waste %d blocks\n",
				s.Bytes, s.TTFB.Round(time.Microsecond), s.MBps(), s.Stalls, s.WastedBlocks)
		}
	}
	return cerr
}

// loadVolume opens a volume with the keypair saved by mkvol.
func loadVolume(ctx context.Context, client *d2.Client, name, keyFile string) (*d2.Volume, error) {
	raw, err := os.ReadFile(keyFile)
	if err != nil {
		return nil, fmt.Errorf("read key file (run mkvol first): %w", err)
	}
	privBytes, err := hex.DecodeString(strings.TrimSpace(string(raw)))
	if err != nil {
		return nil, fmt.Errorf("parse key file: %w", err)
	}
	priv := ed25519.PrivateKey(privBytes)
	pub := priv.Public().(ed25519.PublicKey)
	return client.OpenVolume(ctx, name, pub, priv, d2.VolumeOptions{})
}

// warmRead reads every file under dir so the client's lookup cache sees a
// real workload before a stats report.
func warmRead(ctx context.Context, vol *d2.Volume, dir string) error {
	infos, err := vol.ReadDir(ctx, dir)
	if err != nil {
		return err
	}
	for _, fi := range infos {
		path := strings.TrimSuffix(dir, "/") + "/" + fi.Name
		if fi.IsDir {
			if err := warmRead(ctx, vol, path); err != nil {
				return err
			}
			continue
		}
		if _, err := vol.ReadFile(ctx, path); err != nil {
			return err
		}
	}
	return nil
}
