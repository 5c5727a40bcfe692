package analysis

import "testing"

// These tests pin the fact registrations that put the distributed
// simulation layer under the analyzers' contracts: distsim is
// replay-sensitive and ctx-restricted, and the distributed pipeline's two
// halves — StreamShard and MergeShardDay — are replay roots alongside
// RunWorld/StreamWorld.

// TestReplaySafetyDistsimIsSensitive seeds an order-dependent map range
// in a distsim-path fixture: the package gate must now catch it.
func TestReplaySafetyDistsimIsSensitive(t *testing.T) {
	src := `package distsim

func Reduce(m map[int]float64) []int {
	var ids []int
	for k := range m {
		ids = append(ids, k)
	}
	return ids
}
`
	got := checkFixture(t, ReplaySafety, "anycastcdn/internal/distsim", map[string]string{"a.go": src})
	wantDiags(t, got, []string{
		"a.go:6:replaysafety", // append in map-range order, no directive
	})
}

// TestReplaySafetyDistributedRoots seeds wall-clock reads behind the new
// roots: a helper reachable from StreamShard, and one reachable from
// MergeShardDay, must both carry the replay-sensitive fact. A sibling
// helper reachable from neither stays out of scope: distsim is not a
// RestrictedDeterminism package, since it reads the clock for its stall
// deadlines.
func TestReplaySafetyDistributedRoots(t *testing.T) {
	src := `package distsim

import "time"

func StreamShard() int64 { return stamp() }

func MergeShardDay() int64 { return stamp2() }

func stamp() int64 { return time.Now().UnixNano() }

func stamp2() int64 { return time.Now().UnixNano() }

func Unreached() int64 { return time.Now().UnixNano() }
`
	got := checkFixture(t, ReplaySafety, "anycastcdn/internal/distsim", map[string]string{"a.go": src})
	wantDiags(t, got, []string{
		"a.go:9:replaysafety",  // stamp: reachable from the StreamShard root
		"a.go:11:replaysafety", // stamp2: reachable from the MergeShardDay root
		// Unreached reads the clock too, but no root reaches it.
	})
}

// TestCtxPropagationDistsimRestricted seeds ctx-blind blocking I/O in a
// distsim-path fixture: the restricted-package gate must now catch it,
// and the cancellation watcher the real package uses, which closes the
// conn on ctx.Done, must pass.
func TestCtxPropagationDistsimRestricted(t *testing.T) {
	bad := `package distsim

import (
	"context"
	"net"
)

func ReadFrame(ctx context.Context, conn net.Conn) error {
	buf := make([]byte, 64)
	_, err := conn.Read(buf)
	return err
}
`
	got := checkFixture(t, CtxPropagation, "anycastcdn/internal/distsim", map[string]string{"a.go": bad})
	wantDiags(t, got, []string{
		"a.go:10:ctxpropagation", // conn.Read with the ctx never consulted
	})

	good := `package distsim

import (
	"context"
	"net"
)

func ReadFrame(ctx context.Context, conn net.Conn) error {
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			_ = conn.Close()
		case <-done:
		}
	}()
	buf := make([]byte, 64)
	_, err := conn.Read(buf)
	return err
}
`
	got = checkFixture(t, CtxPropagation, "anycastcdn/internal/distsim", map[string]string{"a.go": good})
	wantDiags(t, got, nil)
}
