// Command voltnoised runs the characterization service: a daemon
// that accepts study requests (frequency sweeps, Vmin walks, EPI
// profiles, guard-band evaluations) over a versioned HTTP/JSON API,
// executes them on a bounded worker pool, and deduplicates identical
// work through a content-addressed result cache.
//
// Usage:
//
//	voltnoised serve [-addr :8080] [-queue 64] [-pool 2] [-cache 256]
//	                 [-data-dir dir] [-journal file] [-pprof addr]
//	voltnoised ctl [-addr http://127.0.0.1:8080] submit <req.json|->
//	voltnoised ctl [...] status|result|wait|cancel <job-id>
//	voltnoised ctl [...] [-from seq] [-drop-every n] watch <job-id>
//	voltnoised ctl [...] run <req.json|->
//	voltnoised ctl [...] studies|metrics|health
//
// A request file holds one JSON study request, e.g.
//
//	{"study": "freq_sweep", "quick": true,
//	 "freq_sweep": {"lo_hz": 1e6, "hi_hz": 4e6, "points": 2}}
//
// `submit -` reads the request from stdin; an argument starting with
// "{" is parsed as inline JSON. Identical configurations are served
// from the cache (byte-identical to a fresh computation; -cache caps
// its in-memory entries, and 0 or a negative value disables it); a
// full job
// queue answers 429 — submit again after the Retry-After interval.
//
// `watch` streams a job's event feed (GET /v1/jobs/{id}/events) live:
// progress lines go to stdout prefixed "# " and the final result JSON
// is printed last, so scripts can strip the commentary with
// `grep -v '^#'`. When the whole stream was seen, the result is
// assembled client-side from the partial events and verified against
// the result hash the done event carries; otherwise (resume with
// -from, or a trimmed window) it is fetched from the server. The
// -drop-every n flag severs the connection after every n events and
// resumes with Last-Event-ID — a fault hook for exercising resume.
//
// -data-dir makes the service crash-safe: completed results persist
// under <dir>/results (one checksummed file per canonical config
// hash, written atomically) and accepted jobs are journaled to
// <dir>/journal.wal before they are enqueued. After any restart —
// kill -9 included — cached results are served byte-identical from
// disk and journaled-but-unfinished jobs are re-enqueued; only the
// computation that was mid-flight is repeated. -journal points the
// write-ahead journal somewhere else (or enables it without a result
// store). Persistence failures never fail a study: the service
// degrades to recomputing and reports it via /metrics and /readyz.
//
// -pprof starts a second HTTP listener serving net/http/pprof
// profiling endpoints (/debug/pprof/...) on the given address. It is
// off by default and kept off the service listener so profiling never
// shares a port with the public API; bind it to loopback, e.g.
// -pprof 127.0.0.1:6060.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"voltnoise/internal/service"
	"voltnoise/internal/service/client"
	"voltnoise/internal/service/journal"
	"voltnoise/internal/service/store"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "voltnoised: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: voltnoised serve|ctl ... (see package doc)")
	}
	switch args[0] {
	case "serve":
		return runServe(args[1:], out)
	case "ctl":
		return runCtl(args[1:], out)
	default:
		return fmt.Errorf("unknown subcommand %q (want serve or ctl)", args[0])
	}
}

func runServe(args []string, out io.Writer) error {
	fs := newFlagSet("voltnoised serve")
	addr := fs.String("addr", ":8080", "listen address")
	queue := fs.Int("queue", 64, "job queue depth (excess submissions get 429)")
	pool := fs.Int("pool", 2, "concurrent study workers")
	cache := fs.Int("cache", 256, "LRU result-cache entries (0 or negative disables)")
	dataDir := fs.String("data-dir", "", "persistence root: results in <dir>/results, journal at <dir>/journal.wal (empty = in-memory only)")
	journalPath := fs.String("journal", "", "write-ahead job journal path (default <data-dir>/journal.wal when -data-dir is set)")
	pprofAddr := fs.String("pprof", "", "profiling listen address for /debug/pprof (empty = disabled)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	results, err := resultStore(*cache, *dataDir, out)
	if err != nil {
		return err
	}
	cfg := service.Config{QueueDepth: *queue, PoolSize: *pool, Store: results}
	if *dataDir != "" && *journalPath == "" {
		*journalPath = filepath.Join(*dataDir, "journal.wal")
	}
	if *journalPath != "" {
		jnl, err := journal.Open(*journalPath)
		if err != nil {
			return fmt.Errorf("job journal: %w", err)
		}
		defer jnl.Close()
		cfg.Journal = jnl
		fmt.Fprintf(out, "voltnoised journal %s (%d pending job(s) to recover)\n", jnl.Path(), len(jnl.Pending()))
	}
	svc := service.NewServer(cfg)
	httpSrv := &http.Server{Addr: *addr, Handler: svc}

	if *pprofAddr != "" {
		psrv, paddr, err := startPprof(*pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		defer psrv.Close()
		fmt.Fprintf(out, "voltnoised profiling on http://%s/debug/pprof/\n", paddr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(out, "voltnoised listening on %s (queue %d, pool %d, cache %d)\n",
		*addr, *queue, *pool, *cache)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Graceful shutdown: drain the job queue, then close the listener.
	fmt.Fprintln(out, "voltnoised draining...")
	drainCtx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := svc.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("draining job queue: %w", err)
	}
	return httpSrv.Shutdown(drainCtx)
}

// resultStore builds the service's result store from the -cache and
// -data-dir flags: an in-memory LRU of cache results (cache < 1 keeps
// none), with the disk store under dataDir behind it when dataDir is
// set.
func resultStore(cache int, dataDir string, out io.Writer) (store.Store, error) {
	mem := store.NewMemory(cache)
	if dataDir == "" {
		return mem, nil
	}
	disk, err := store.NewDisk(filepath.Join(dataDir, "results"))
	if err != nil {
		return nil, fmt.Errorf("result store: %w", err)
	}
	fmt.Fprintf(out, "voltnoised results in %s (%d on disk)\n", disk.Dir(), disk.Len())
	return store.NewTiered(mem, disk), nil
}

// pprofMux serves the net/http/pprof endpoints on a dedicated mux —
// never the global http.DefaultServeMux and never the service
// listener, so enabling profiling cannot expose it on the API port.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// startPprof binds the profiling listener and serves pprofMux on it
// in the background, returning the server (Close to stop) and the
// bound address (useful with ":0").
func startPprof(addr string) (*http.Server, net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: pprofMux()}
	go srv.Serve(ln)
	return srv, ln.Addr(), nil
}

func runCtl(args []string, out io.Writer) error {
	fs := newFlagSet("voltnoised ctl")
	addr := fs.String("addr", "http://127.0.0.1:8080", "server base URL")
	poll := fs.Duration("poll", 100*time.Millisecond, "poll interval for wait")
	timeout := fs.Duration("timeout", 10*time.Minute, "overall deadline")
	from := fs.Int64("from", 0, "watch: resume after this event seq (0 = full stream)")
	dropEvery := fs.Int("drop-every", 0, "watch: sever the stream after every n events and resume (fault hook; 0 = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		return fmt.Errorf("ctl: missing verb (submit|status|result|wait|watch|cancel|run|studies|metrics|health)")
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	c := client.New(*addr)

	verb, rest := rest[0], rest[1:]
	need := func(what string) (string, error) {
		if len(rest) != 1 {
			return "", fmt.Errorf("ctl %s: want exactly one %s argument", verb, what)
		}
		return rest[0], nil
	}
	switch verb {
	case "submit":
		arg, err := need("request")
		if err != nil {
			return err
		}
		req, err := readRequest(arg)
		if err != nil {
			return err
		}
		st, err := c.Submit(ctx, req)
		if err != nil {
			return err
		}
		return printJSON(out, st)
	case "status":
		id, err := need("job-id")
		if err != nil {
			return err
		}
		st, err := c.Job(ctx, id)
		if err != nil {
			return err
		}
		return printJSON(out, st)
	case "result":
		id, err := need("job-id")
		if err != nil {
			return err
		}
		body, _, err := c.Result(ctx, id)
		if err != nil {
			return err
		}
		return printRaw(out, body)
	case "wait":
		id, err := need("job-id")
		if err != nil {
			return err
		}
		st, err := c.Wait(ctx, id, *poll)
		if err != nil {
			return err
		}
		return printJSON(out, st)
	case "watch":
		id, err := need("job-id")
		if err != nil {
			return err
		}
		c.StreamDropEvery = *dropEvery
		return runWatch(ctx, c, out, id, *from, *poll)
	case "cancel":
		id, err := need("job-id")
		if err != nil {
			return err
		}
		if err := c.Cancel(ctx, id); err != nil {
			return err
		}
		fmt.Fprintf(out, "canceled %s\n", id)
		return nil
	case "run":
		arg, err := need("request")
		if err != nil {
			return err
		}
		req, err := readRequest(arg)
		if err != nil {
			return err
		}
		body, cached, err := c.Run(ctx, req)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "cache: %s\n", cacheWord(cached))
		return printRaw(out, body)
	case "studies":
		studies, err := c.Studies(ctx)
		if err != nil {
			return err
		}
		for _, s := range studies {
			fmt.Fprintln(out, s)
		}
		return nil
	case "metrics":
		snap, err := c.Metrics(ctx)
		if err != nil {
			return err
		}
		return printJSON(out, snap)
	case "health":
		if err := c.Healthy(ctx); err != nil {
			return err
		}
		if err := c.Ready(ctx); err != nil {
			fmt.Fprintln(out, "healthy, not ready")
			return nil
		}
		fmt.Fprintln(out, "healthy, ready")
		return nil
	default:
		return fmt.Errorf("ctl: unknown verb %q", verb)
	}
}

// runWatch streams the job's event feed, narrating progress as "# "
// lines, and prints the final result JSON last. When the full stream
// was seen and the study supports it, the result is assembled
// client-side from the partial events and verified against the hash
// the done event carries; any gap (resume with -from, trimmed window,
// lifecycle-only study) falls back to fetching the server's blob —
// byte-identical either way.
func runWatch(ctx context.Context, c *client.Client, out io.Writer, id string, from int64, poll time.Duration) error {
	events, errc := c.WatchFrom(ctx, id, from)
	var all []*service.Event
	for e := range events {
		all = append(all, e)
		switch e.Type {
		case service.EventHello:
			fmt.Fprintf(out, "# seq=%d hello job=%s study=%s state=%s\n", e.Seq, e.Job, e.Study, e.State)
		case service.EventPartial:
			fmt.Fprintf(out, "# seq=%d partial chunks %d/%d\n", e.Seq, e.ChunksDone, e.ChunksTotal)
		case service.EventDone:
			fmt.Fprintf(out, "# seq=%d done result %d bytes sha256=%s\n", e.Seq, e.ResultBytes, e.ResultHash)
		default:
			fmt.Fprintf(out, "# seq=%d %s state=%s\n", e.Seq, e.Type, e.State)
		}
	}
	fetch := func() error {
		body, _, err := c.Result(ctx, id)
		if err != nil {
			return err
		}
		return printRaw(out, body)
	}
	if err := <-errc; err != nil {
		if !errors.Is(err, client.ErrEventsGone) {
			return err
		}
		// The retained window moved past the resume point; the full
		// result is still one GET away (the documented fallback).
		fmt.Fprintf(out, "# stream gone (%v); fetching full result\n", err)
		if _, err := c.Wait(ctx, id, poll); err != nil {
			return err
		}
		return fetch()
	}
	last := all[len(all)-1]
	switch last.Type {
	case service.EventFailed:
		return fmt.Errorf("job %s failed: %s", id, last.Error)
	case service.EventCanceled:
		return fmt.Errorf("job %s canceled", id)
	}
	assembled, err := service.AssembleResult(all)
	if err != nil {
		fmt.Fprintf(out, "# stream assembly unavailable (%v); fetching result\n", err)
		return fetch()
	}
	sum := sha256.Sum256(assembled)
	if got := hex.EncodeToString(sum[:]); got != last.ResultHash {
		return fmt.Errorf("assembled result hash %s does not match the done event's %s", got, last.ResultHash)
	}
	fmt.Fprintln(out, "# assembled from stream; hash verified against done event")
	return printRaw(out, assembled)
}

// readRequest loads a study request from a file path, "-" (stdin), or
// an inline "{...}" JSON argument.
func readRequest(arg string) (*service.Request, error) {
	var data []byte
	var err error
	switch {
	case strings.HasPrefix(strings.TrimSpace(arg), "{"):
		data = []byte(arg)
	case arg == "-":
		data, err = io.ReadAll(os.Stdin)
	default:
		data, err = os.ReadFile(arg)
	}
	if err != nil {
		return nil, fmt.Errorf("reading request: %w", err)
	}
	var req service.Request
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("decoding request: %w", err)
	}
	return &req, nil
}

func printJSON(out io.Writer, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(b))
	return err
}

// printRaw writes result bytes with a trailing newline.
func printRaw(out io.Writer, body []byte) error {
	_, err := fmt.Fprintln(out, strings.TrimRight(string(body), "\n"))
	return err
}

func cacheWord(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

func newFlagSet(name string) *flag.FlagSet {
	return flag.NewFlagSet(name, flag.ContinueOnError)
}
