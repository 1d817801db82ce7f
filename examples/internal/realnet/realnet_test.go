package realnet

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"ctsan/internal/consensus"
	"ctsan/internal/fd"
	"ctsan/internal/neko"
)

// runConsensus wires consensus over the cluster and runs one instance,
// returning the decisions of all processes.
func runConsensus(t *testing.T, c *Cluster, n int, timeoutMs float64) map[neko.ProcessID]int64 {
	t.Helper()
	engines := make([]*consensus.Engine, n+1)
	for i := 1; i <= n; i++ {
		proc := c.Proc(neko.ProcessID(i))
		stack := neko.NewStack(proc)
		fd.NewHeartbeat(stack, timeoutMs, 0.7*timeoutMs, nil)
		det := fd.NewOracle()
		engines[i] = consensus.NewEngine(stack, det, consensus.Options{})
		proc.Attach(stack)
	}
	c.Start()
	time.Sleep(5 * time.Millisecond)

	var (
		mu      sync.Mutex
		wg      sync.WaitGroup
		decided = make(map[neko.ProcessID]int64)
	)
	wg.Add(n)
	for i := 1; i <= n; i++ {
		i := i
		proc := c.Proc(neko.ProcessID(i))
		proc.Invoke(func() {
			engines[i].Propose(1, int64(i), func(d consensus.Decision) {
				mu.Lock()
				decided[neko.ProcessID(i)] = d.Val
				mu.Unlock()
				wg.Done()
			}, nil)
		})
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("consensus did not terminate within 5s")
	}
	return decided
}

func checkAgreement(t *testing.T, decided map[neko.ProcessID]int64, n int) {
	t.Helper()
	if len(decided) != n {
		t.Fatalf("%d/%d decided", len(decided), n)
	}
	var val int64
	first := true
	for p, v := range decided {
		if first {
			val, first = v, false
		} else if v != val {
			t.Fatalf("agreement violated: p%d=%d others=%d", p, v, val)
		}
		if v < 1 || v > int64(n) {
			t.Fatalf("validity violated: %d", v)
		}
	}
}

func TestInProcConsensus(t *testing.T) {
	const n = 3
	c := NewInProcCluster(n, func(err error) { t.Error(err) })
	defer c.Close()
	checkAgreement(t, runConsensus(t, c, n, 200), n)
}

func TestTCPConsensus(t *testing.T) {
	const n = 3
	c, err := NewTCPCluster(n, func(err error) { t.Log(err) })
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	checkAgreement(t, runConsensus(t, c, n, 500), n)
}

func TestTCPFiveProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const n = 5
	c, err := NewTCPCluster(n, func(err error) { t.Log(err) })
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	checkAgreement(t, runConsensus(t, c, n, 500), n)
}

func TestTCPNodeRoundtrip(t *testing.T) {
	got := make(chan neko.Message, 1)
	a, err := NewTCPNode(1, func(m neko.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewTCPNode(2, func(m neko.Message) { got <- m })
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.Connect(2, b.Addr()); err != nil {
		t.Fatal(err)
	}
	want := neko.Message{From: 1, To: 2, Type: "ct.ack", Payload: neko.Payload{Kind: neko.PayloadAck, Cid: 7, Round: 3, OK: true}}
	if err := a.Send(want); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m != want {
			t.Fatalf("message mismatch: got %+v, want %+v", m, want)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("message not delivered")
	}
}

func TestSendToUnknownPeer(t *testing.T) {
	a, err := NewTCPNode(1, func(neko.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Send(neko.Message{To: 9, Type: "x"}); err == nil {
		t.Fatal("send to unconnected peer succeeded")
	}
	mesh := NewInProcMesh()
	if err := mesh.Send(neko.Message{To: 3}); err == nil {
		t.Fatal("in-proc send to unknown process succeeded")
	}
}

func TestProcTimer(t *testing.T) {
	c := NewInProcCluster(1, nil)
	defer c.Close()
	p := c.Proc(1)
	go p.Run()
	fired := make(chan struct{})
	p.Invoke(func() {
		p.SetTimer(5, func() { close(fired) })
	})
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("timer did not fire")
	}
}

func TestProcTimerStop(t *testing.T) {
	c := NewInProcCluster(1, nil)
	defer c.Close()
	p := c.Proc(1)
	go p.Run()
	fired := make(chan struct{}, 1)
	p.Invoke(func() {
		h := p.SetTimer(30, func() { fired <- struct{}{} })
		h.Stop()
	})
	select {
	case <-fired:
		t.Fatal("stopped timer fired")
	case <-time.After(100 * time.Millisecond):
	}
}

func TestSequentialInstancesOverTCP(t *testing.T) {
	const n = 3
	c, err := NewTCPCluster(n, func(err error) { t.Log(err) })
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	engines := make([]*consensus.Engine, n+1)
	for i := 1; i <= n; i++ {
		proc := c.Proc(neko.ProcessID(i))
		stack := neko.NewStack(proc)
		fd.NewHeartbeat(stack, 300, 210, nil)
		engines[i] = consensus.NewEngine(stack, fd.NewOracle(), consensus.Options{})
		proc.Attach(stack)
	}
	c.Start()
	for k := uint64(0); k < 5; k++ {
		var (
			mu   sync.Mutex
			vals = map[neko.ProcessID]int64{}
			wg   sync.WaitGroup
		)
		wg.Add(n)
		for i := 1; i <= n; i++ {
			i := i
			k := k
			c.Proc(neko.ProcessID(i)).Invoke(func() {
				engines[i].Propose(k, int64(100*int(k)+i), func(d consensus.Decision) {
					mu.Lock()
					vals[neko.ProcessID(i)] = d.Val
					mu.Unlock()
					wg.Done()
				}, nil)
			})
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("instance %d stuck", k)
		}
		var ref int64 = -1
		for _, v := range vals {
			if ref == -1 {
				ref = v
			} else if v != ref {
				t.Fatalf("instance %d: values %v", k, vals)
			}
		}
	}
}

func ExampleNewInProcCluster() {
	c := NewInProcCluster(2, nil)
	defer c.Close()
	fmt.Println(len(c.Procs))
	// Output: 2
}
