package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"secdir/internal/config"
	"secdir/internal/fleet"
	"secdir/internal/metrics"
	"secdir/internal/server"
	"secdir/internal/store"
)

// fleetWorkers is the number of in-process worker servers behind the
// coordinator.
const fleetWorkers = 2

// rig is an in-process secdir-serve deployment: a coordinator with a disk
// store (the -store-dir wiring) and fleetWorkers worker servers, each on
// its own 127.0.0.1 listener.
type rig struct {
	url     string
	coord   *server.Server
	workers []*server.Server
	https   []*http.Server
	serving sync.WaitGroup
	fc      *fleet.Coordinator
	reg     *metrics.Registry
	disk    *store.DiskBackend
	st      *store.Store

	// Set on traced rigs only: wrappers timing the coordinator's job
	// submissions, the workers' shard executions and the store's writes.
	submits *timedHandler
	shards  *timedHandler
	timed   *timedBackend
}

func serverConfig() config.ServerConfig {
	cfg := config.DefaultServerConfig()
	cfg.Addr = "127.0.0.1:0"
	return cfg
}

// startRig brings a deployment up with its store in dir and returns once
// the coordinator has probed every worker's pool width, so the first job
// is dispatched exactly like later ones.
func startRig(dir string, traced bool) (*rig, error) {
	rg := &rig{reg: metrics.New()}
	if traced {
		rg.submits = &timedHandler{method: http.MethodPost, path: "/jobs"}
		rg.shards = &timedHandler{method: http.MethodPost, path: "/fleet/shard"}
	}
	var urls []string
	for i := 0; i < fleetWorkers; i++ {
		ws, err := server.New(serverConfig(), nil)
		if err != nil {
			return nil, errors.Join(err, rg.close())
		}
		rg.workers = append(rg.workers, ws)
		u, err := rg.listen(rg.shards.wrap(ws))
		if err != nil {
			return nil, errors.Join(err, rg.close())
		}
		urls = append(urls, u)
	}

	coord, err := server.New(serverConfig(), rg.reg)
	if err != nil {
		return nil, errors.Join(err, rg.close())
	}
	rg.coord = coord
	if rg.disk, err = store.OpenDisk(dir); err != nil {
		return nil, errors.Join(err, rg.close())
	}
	var backend store.Backend = rg.disk
	if traced {
		rg.timed = &timedBackend{Backend: rg.disk}
		backend = rg.timed
	}
	if rg.st, err = store.Open(backend, store.Options{}); err != nil {
		return nil, errors.Join(err, rg.close())
	}
	if _, err := coord.AttachStore(rg.st); err != nil {
		return nil, errors.Join(err, rg.close())
	}
	rg.fc = fleet.New(fleet.Config{Workers: urls, Metrics: rg.reg})
	coord.AttachFleet(rg.fc)
	if rg.url, err = rg.listen(rg.submits.wrap(coord)); err != nil {
		return nil, errors.Join(err, rg.close())
	}

	for deadline := time.Now().Add(10 * time.Second); ; {
		ready := 0
		for _, w := range rg.fc.Workerz() {
			if w.Alive && w.PoolWidth > 0 {
				ready++
			}
		}
		if ready == fleetWorkers {
			return rg, nil
		}
		if time.Now().After(deadline) {
			return nil, errors.Join(fmt.Errorf("fleet: %d of %d workers ready after 10s", ready, fleetWorkers), rg.close())
		}
		time.Sleep(time.Millisecond)
	}
}

// listen serves h on a fresh loopback port and returns its base URL.
func (rg *rig) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	rg.https = append(rg.https, hs)
	rg.serving.Add(1)
	go func() {
		defer rg.serving.Done()
		_ = hs.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	return "http://" + ln.Addr().String(), nil
}

// waitRecords waits until the store has sealed want ledger records: a job's
// terminal record is appended just after its result becomes readable.
func (rg *rig) waitRecords(want int64) error {
	for deadline := time.Now().Add(10 * time.Second); rg.st.Stats().Records < want; {
		if time.Now().After(deadline) {
			return fmt.Errorf("store holds %d records after 10s, want %d", rg.st.Stats().Records, want)
		}
		time.Sleep(time.Millisecond)
	}
	return rg.st.Flush()
}

// close drains every server, stops the listeners, waits for them, and
// closes the store.
func (rg *rig) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if rg.coord != nil {
		_, err := rg.coord.Drain(ctx)
		errs = append(errs, err)
	} else if rg.fc != nil {
		errs = append(errs, rg.fc.Drain(ctx))
	}
	for _, w := range rg.workers {
		_, err := w.Drain(ctx)
		errs = append(errs, err)
	}
	for _, hs := range rg.https {
		errs = append(errs, hs.Shutdown(ctx))
	}
	rg.serving.Wait()
	if rg.st != nil {
		errs = append(errs, rg.st.Close())
	} else if rg.disk != nil {
		errs = append(errs, rg.disk.Close())
	}
	return errors.Join(errs...)
}

// timedHandler times the requests matching one method and path.
type timedHandler struct {
	method, path string
	next         http.Handler

	mu sync.Mutex
	d  []time.Duration
}

// wrap returns h itself on a nil timedHandler, else a timing wrapper
// around it. One timedHandler may wrap several servers.
func (t *timedHandler) wrap(h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != t.method || r.URL.Path != t.path {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(t0)
		t.mu.Lock()
		t.d = append(t.d, d)
		t.mu.Unlock()
	})
}

// durations returns a copy of the recorded times.
func (t *timedHandler) durations() []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]time.Duration(nil), t.d...)
}

// timedBackend is a store.Backend that times the two write paths the
// batcher drives and counts ledger lines per append; reads pass straight
// through.
type timedBackend struct {
	store.Backend

	mu      sync.Mutex
	appends []time.Duration
	puts    []time.Duration
	lines   int
}

// PutArtifact implements store.Backend.
func (b *timedBackend) PutArtifact(digest string, data []byte) error {
	t0 := time.Now()
	err := b.Backend.PutArtifact(digest, data)
	d := time.Since(t0)
	b.mu.Lock()
	b.puts = append(b.puts, d)
	b.mu.Unlock()
	return err
}

// AppendLedger implements store.Backend.
func (b *timedBackend) AppendLedger(lines [][]byte) error {
	t0 := time.Now()
	err := b.Backend.AppendLedger(lines)
	d := time.Since(t0)
	b.mu.Lock()
	b.appends = append(b.appends, d)
	b.lines += len(lines)
	b.mu.Unlock()
	return err
}

// writes returns copies of the recorded write timings and the line count.
func (b *timedBackend) writes() (appends, puts []time.Duration, lines int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]time.Duration(nil), b.appends...), append([]time.Duration(nil), b.puts...), b.lines
}
