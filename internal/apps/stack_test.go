package apps

import (
	"os"
	"os/exec"
	"runtime/debug"
	"strings"
	"testing"

	"mpinet/internal/cluster"
	"mpinet/internal/metrics"
	"mpinet/internal/mpi"
	"mpinet/internal/msgtrace"
)

// Stack budget probe. A rank is a coroutine with its own goroutine stack,
// and at a thousand ranks those stacks are a large share of a world's
// memory. Go stacks grow by doubling, so a rank costs 4 KB only while its
// deepest call chain fits in 4 KB less the runtime's 928-byte guard.
const (
	// stackLimit is the largest stack a rank may grow to.
	stackLimit = 4096
	// stackHeadroom is the padding every rank body runs under: the margin
	// left for one more frame on any rank path before the stacks double.
	stackHeadroom = 256
	// stackProbeEnv names the interconnect a probe child process runs.
	stackProbeEnv = "MPINET_STACK_PROBE"
)

// raceBuild is set in race-detector builds (stack_race_test.go).
var raceBuild bool

// TestRankStackBudget runs 1024-rank LU class S on Clos(3, 24, 2), plain
// and observed (metrics and one-in-16 message tracing), with every rank
// body under a stackHeadroom-byte frame, in a child process per
// interconnect whose goroutines start at 2 KB and may not grow past
// stackLimit. A rank that needs more kills its child with a stack-overflow
// trace naming the deepest chain, which the failure logs. Garbage
// collection is off in the child so no stack shrinks behind the probe's
// back.
func TestRankStackBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-rank worlds in child processes")
	}
	if raceBuild {
		t.Skip("race instrumentation enlarges every frame")
	}
	if net := os.Getenv(stackProbeEnv); net != "" {
		stackProbe(t, net)
		return
	}
	for _, p := range cluster.OSU() {
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			cmd := exec.Command(os.Args[0], "-test.run=^TestRankStackBudget$", "-test.count=1", "-test.v")
			cmd.Env = append(os.Environ(), stackProbeEnv+"="+p.Name, "GODEBUG=adaptivestackstart=0")
			if out, err := cmd.CombinedOutput(); err != nil {
				t.Fatalf("a %s rank outgrew a %d-byte stack with %d bytes of headroom: %v\n%s",
					p.Name, stackLimit, stackHeadroom, err, overflowTrace(out))
			}
		})
	}
}

// overflowTrace cuts a child's output down to the stack overflow and the
// trace of the goroutine that overflowed, whose frames name the chain that
// outgrew the limit; output without an overflow comes back whole.
func overflowTrace(out []byte) string {
	s := string(out)
	i := strings.Index(s, "runtime: goroutine stack exceeds")
	if i < 0 {
		return s
	}
	s = s[i:]
	j := strings.Index(s, "[running]:")
	if j < 0 {
		return s
	}
	if k := strings.Index(s[j:], "\n\n"); k >= 0 {
		s = s[:j+k]
	}
	return s
}

// stackProbe is the child side of TestRankStackBudget: it runs LU on the
// named interconnect under the stack limit.
func stackProbe(t *testing.T, net string) {
	var plat cluster.Platform
	for _, p := range cluster.OSU() {
		if p.Name == net {
			plat = p
		}
	}
	if plat.Name == "" {
		t.Fatalf("unknown interconnect %q", net)
	}
	plat = plat.With(cluster.Clos(3, 24, 2))
	const ranks = 1024
	cal := LU().cal(ClassS)

	// The engine and its event handlers run on this goroutine, not on a
	// rank's: grow its stack before the limit applies, and keep the
	// collector from shrinking it again.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	growStack(64)
	defer debug.SetMaxStack(debug.SetMaxStack(stackLimit))

	for _, observed := range []bool{false, true} {
		cfg := mpi.Config{Net: plat.New(ranks), Procs: ranks}
		if observed {
			cfg.Metrics = metrics.New()
			cfg.MsgTrace = msgtrace.New(16)
		}
		w, err := mpi.NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Run(func(r *mpi.Rank) { underHeadroom(r, cal) }); err != nil {
			t.Fatalf("%s observed=%v: %v", net, observed, err)
		}
	}
}

// underHeadroom runs rank r's LU body below a frame of at least
// stackHeadroom bytes.
//
//go:noinline
func underHeadroom(r *mpi.Rank, cal calibration) {
	var pad [stackHeadroom]byte
	touch(pad[:])
	runLU(r, ClassS, cal)
}

// growStack recurses through kb frames of about a kilobyte each, leaving
// the calling goroutine's stack grown to hold them.
//
//go:noinline
func growStack(kb int) {
	var pad [1024]byte
	touch(pad[:])
	if kb > 1 {
		growStack(kb - 1)
	}
}

// touch keeps a padding array live in its caller's frame.
//
//go:noinline
func touch(b []byte) { b[0]++ }
