package serve

// The crash-safe run journal. The server's singleflight cache and SSE
// logs live in memory, so a SIGKILL or OOM forgets every completed run
// and throws away every in-flight one. With Options.Journal set, the
// server keeps a write-ahead journal on disk instead:
//
//	<sha256(key)>.req.json     the accepted request, written (atomic
//	                           temp+fsync+rename+dir fsync) BEFORE
//	                           execution starts
//	<sha256(key)>.ckpt         periodic simulation checkpoint, rewritten
//	                           at epoch boundaries while the run executes
//	<sha256(key)>.result.json  the canonical RunResult document, written
//	                           on completion; req+ckpt are then removed
//
// On restart the journal is replayed: result files rehydrate the
// completed-run cache (served byte-identically, no re-execution), and
// request files without results are the interrupted runs — each is
// re-executed in the background, resuming from its checkpoint when one
// survived. A client that re-POSTs an interrupted request joins the
// recovery flight through the runner's singleflight, so convergence to
// the uninterrupted bytes costs one partial re-run at most.
//
// Only recorded outcomes are committed — StatusComplete and
// StatusWearOut, mirroring the runner's cache rule — so a partial or
// failed result can never masquerade as a complete one after a
// restart.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	v1 "respin/internal/api/v1"
	"respin/internal/checkpoint"
)

// defaultJournalEvery is the checkpoint cadence (in simulated cycles)
// for journaled runs when Options.JournalCheckpointCycles is zero.
const defaultJournalEvery = 20_000

// journal is the on-disk write-ahead journal plus its in-memory view of
// committed results.
type journal struct {
	dir   string
	every uint64

	mu      sync.Mutex
	results map[string]v1.RunResult // request key -> committed envelope
}

// openJournal creates/opens the journal directory, replays it, and
// returns the interrupted requests that need recovery. Unreadable or
// corrupt entries are skipped (and counted by the caller's metrics),
// never fatal: a damaged journal costs re-execution, not availability.
func openJournal(dir string, every uint64) (*journal, []v1.RunRequest, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("serve: journal: %w", err)
	}
	if every == 0 {
		every = defaultJournalEvery
	}
	j := &journal{dir: dir, every: every, results: make(map[string]v1.RunResult)}

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: journal: %w", err)
	}
	done := make(map[string]bool)
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".result.json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			continue
		}
		doc, err := v1.DecodeRunResult(bytes.NewReader(data))
		if err != nil {
			continue
		}
		j.results[doc.Request.Key()] = doc
		done[strings.TrimSuffix(name, ".result.json")] = true
	}
	var pending []v1.RunRequest
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".req.json") {
			continue
		}
		h := strings.TrimSuffix(name, ".req.json")
		if done[h] {
			// The request completed and committed; the leftover WAL
			// entry just missed its cleanup.
			os.Remove(filepath.Join(dir, name))
			continue
		}
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			continue
		}
		req, err := v1.DecodeRunRequest(f)
		f.Close()
		if err != nil {
			continue
		}
		pending = append(pending, req)
	}
	return j, pending, nil
}

// hash names a request's journal files: the hex SHA-256 of its
// canonical key, so identical requests share one entry and the file
// name stays filesystem-safe whatever the request contains.
func (j *journal) hash(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

func (j *journal) reqPath(key string) string {
	return filepath.Join(j.dir, j.hash(key)+".req.json")
}

func (j *journal) ckptPath(key string) string {
	return filepath.Join(j.dir, j.hash(key)+".ckpt")
}

func (j *journal) resultPath(key string) string {
	return filepath.Join(j.dir, j.hash(key)+".result.json")
}

// lookup returns the committed result for key, if any.
func (j *journal) lookup(key string) (v1.RunResult, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	doc, ok := j.results[key]
	return doc, ok
}

// completed reports how many committed results the journal holds.
func (j *journal) completed() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.results)
}

// logRequest journals an accepted request before its execution starts —
// the write-ahead step that makes an in-flight run recoverable.
// Idempotent: a recovery re-execution overwrites the same bytes.
func (j *journal) logRequest(key string, req v1.RunRequest) error {
	data, err := v1.EncodeBytes(req)
	if err != nil {
		return fmt.Errorf("serve: journal: %w", err)
	}
	return writeAtomic(j.reqPath(key), data)
}

// commit records a run's final envelope and retires its WAL entry and
// checkpoint. After the result file is durably in place the request
// and checkpoint files are dead weight; removing them keeps replay
// linear in the number of incomplete runs.
func (j *journal) commit(key string, doc v1.RunResult) error {
	data, err := v1.EncodeBytes(doc)
	if err != nil {
		return fmt.Errorf("serve: journal: %w", err)
	}
	if err := writeAtomic(j.resultPath(key), data); err != nil {
		return err
	}
	j.mu.Lock()
	j.results[key] = doc
	j.mu.Unlock()
	os.Remove(j.ckptPath(key))
	os.Remove(j.reqPath(key))
	return nil
}

// writeAtomic writes data to path with checkpoint.WriteFile, so a crash
// mid-write leaves either the old file or the new one, never a torn
// journal entry.
func writeAtomic(path string, data []byte) error {
	err := checkpoint.WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
	if err != nil {
		return fmt.Errorf("serve: journal %s: %w", path, err)
	}
	return nil
}
