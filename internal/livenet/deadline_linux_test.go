package livenet

import (
	"context"
	"errors"
	"net"
	"runtime"
	"strconv"
	"syscall"
	"testing"
	"time"

	"resilientmix/internal/netsim"
	"resilientmix/internal/obs"
)

// unansweredPeer returns the address of a listening socket that answers
// no SYN: its backlog is 0 and full, nothing accepts from it, so Linux
// drops every further SYN and a dial to it can only end at its deadline.
// (silentServer accepts and then says nothing; this peer never lets the
// dial finish.)
func unansweredPeer(t *testing.T) string {
	t.Helper()
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Close(fd) })
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Listen(fd, 0); err != nil {
		t.Fatal(err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		t.Fatal(err)
	}
	addr := net.JoinHostPort("127.0.0.1", strconv.Itoa(sa.(*syscall.SockaddrInet4).Port))
	// With SYN cookies this connection completes and waits in the queue;
	// without them a backlog of 0 drops it already. Either way the queue
	// takes no more.
	if queued, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
		t.Cleanup(func() { queued.Close() })
	}
	if conn, err := net.DialTimeout("tcp", addr, 50*time.Millisecond); err == nil {
		conn.Close()
		t.Skip("this kernel completes a handshake past a full backlog")
	}
	return addr
}

// isTimeout reports whether err is a network timeout.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// TestUnansweredDialEndsAtDeadline pins that net honours a dialDeadline,
// a context with a deadline and a nil Done: Node.send to a peer that
// never answers fails with a timeout once its one attempt has ended at
// DialTimeout, the frame is counted in live.send_errors and traced as
// dropped, and no goroutine is left behind.
func TestUnansweredDialEndsAtDeadline(t *testing.T) {
	const timeout = 100 * time.Millisecond
	// Under the 150ms a second attempt would add at the least: another
	// timeout and a 50ms backoff before it.
	const slack = 140 * time.Millisecond
	trace := obs.NewCollector()
	c := startCluster(t, 2, nil, func(cfg *Config) {
		cfg.DialTimeout = timeout
		cfg.Tracer = trace
	})
	node := c.nodes[0]
	node.SetRoster(c.readdressed(t, addrOf(1, unansweredPeer(t))))
	base := runtime.NumGoroutine()

	start := time.Now()
	err := node.send(dataTo(1), nil)
	elapsed := time.Since(start)
	if !isTimeout(err) || elapsed < timeout || elapsed > timeout+slack {
		t.Fatalf("send ended after %v with %v, want a timeout after one %v attempt", elapsed, err, timeout)
	}
	if v := node.Metrics().Counter("live.send_errors").Value(); v != 1 {
		t.Fatalf("live.send_errors = %d, want 1", v)
	}
	if n := sendFailedDrops(trace, 0, 1); n != 1 {
		t.Fatalf("%d send-failed drops traced, want 1", n)
	}
	awaitGoroutines(t, base)
}

// TestConstructCancelledMidDial pins the one dial under a real context:
// a construction whose caller cancels while the first relay's dial
// hangs returns at once with context.Canceled, not at DialTimeout.
func TestConstructCancelledMidDial(t *testing.T) {
	c := startCluster(t, 3, nil)
	node := c.nodes[0]
	node.SetRoster(c.readdressed(t, addrOf(1, unansweredPeer(t))))
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const after = 50 * time.Millisecond
	time.AfterFunc(after, cancel)
	start := time.Now()
	_, err := node.ConstructCtx(ctx, []netsim.NodeID{1}, 2)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed > after+500*time.Millisecond {
		t.Fatalf("a construction cancelled after %v returned after %v (DialTimeout %v)", after, elapsed, node.cfg.DialTimeout)
	}
	awaitGoroutines(t, base)
}
