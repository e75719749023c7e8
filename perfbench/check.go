package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	v1 "respin/internal/api/v1"
	"respin/internal/config"
	"respin/internal/sim"
)

// defaultSeed is the seed whose result digests are committed in
// digests.json.
const defaultSeed = 1

//go:embed digests.json
var committedJSON []byte

// point is one simulation request with its resolved configuration.
type point struct {
	req  v1.RunRequest
	cfg  config.Config
	opts sim.Options
}

// newPoint builds and resolves the request for one design point.
func newPoint(cfgName, bench string, quota uint64, seed int64) (point, error) {
	req := v1.RunRequest{Config: cfgName, Bench: bench, Quota: quota, Seed: seed}
	if err := req.Normalize(); err != nil {
		return point{}, err
	}
	cfg, opts, err := req.Resolve()
	if err != nil {
		return point{}, err
	}
	return point{req: req, cfg: cfg, opts: opts}, nil
}

func (p point) label() string { return p.req.Label() }

// encode renders a result canonically: the v1 envelope in the v1
// encoding, the exact bytes respin-serve and respin-sim -metrics emit.
func encode(req v1.RunRequest, res sim.Result) ([]byte, error) {
	doc, err := v1.NewResult(req, res, nil)
	if err != nil {
		return nil, err
	}
	return v1.EncodeBytes(doc)
}

// digest hashes the canonical encoding of a result without its
// telemetry snapshot, which depends only on whether a collector was
// attached; every simulated figure stays covered.
func digest(req v1.RunRequest, res sim.Result) (string, error) {
	res.Metrics = nil
	body, err := encode(req, res)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:]), nil
}

// checker holds the output checks of one run: every repeat of a point
// must reproduce the point's first digest, and at the default seed the
// digest committed for the point.
type checker struct {
	committed map[string]string // nil unless the run uses the default seed

	mu       sync.Mutex
	seen     map[string]string
	failures []string
}

func newChecker(seed int64) (*checker, error) {
	c := &checker{seen: make(map[string]string)}
	if seed == defaultSeed {
		if err := json.Unmarshal(committedJSON, &c.committed); err != nil {
			return nil, fmt.Errorf("perfbench: digests.json: %w", err)
		}
	}
	return c, nil
}

// check records one result digest and reports whether it passed.
// pinned points must have a committed digest at the default seed;
// others are compared only when one exists.
func (c *checker) check(label, dig string, pinned bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if first, ok := c.seen[label]; ok && first != dig {
		c.failures = append(c.failures, fmt.Sprintf("%s: digest %s differs from the run's first %s", label, dig[:12], first[:12]))
		return false
	}
	c.seen[label] = dig
	if c.committed == nil {
		return true
	}
	want, ok := c.committed[label]
	switch {
	case !ok && pinned:
		c.failures = append(c.failures, fmt.Sprintf("%s: no committed digest", label))
		return false
	case ok && want != dig:
		c.failures = append(c.failures, fmt.Sprintf("%s: digest %s, committed %s", label, dig[:12], want[:12]))
		return false
	}
	return true
}

// fail records a failed operation that produced no digest.
func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failures = append(c.failures, fmt.Sprintf(format, args...))
}

// digests returns every digest the run saw, sorted by label, for
// refreshing digests.json.
func (c *checker) digests() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.seen))
	for l, d := range c.seen {
		out = append(out, fmt.Sprintf("%q: %q", l, d))
	}
	sort.Strings(out)
	return out
}
