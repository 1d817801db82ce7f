// Replicated-service: the motivating scenario of §2.3 — a service
// replicated for fault tolerance with active replication. Client requests
// are ordered by atomic broadcast, which is implemented by a sequence of
// consensus executions: request k is delivered at a replica as soon as
// that replica decides in consensus #k. The client takes the first reply.
//
// This example runs in real time over the in-process transport (the same
// protocol code the emulator executes in virtual time), processes a batch
// of banking commands, and shows that all replicas apply them in the same
// order even though they were submitted concurrently to different
// replicas.
package main

import (
	"flag"
	"fmt"
	"log"
	"sync"
	"time"

	"ctsan/examples/internal/realnet"
	"ctsan/internal/consensus"
	"ctsan/internal/fd"
	"ctsan/internal/neko"
)

// replica is one actively replicated state machine: a tiny account store.
type replica struct {
	mu      sync.Mutex
	id      int
	engine  *consensus.Engine
	proc    *realnet.Proc
	balance map[string]int
	applied []int64
	next    uint64
}

// command encodes "credit account[idx] with amount" as an int64 so it fits
// the consensus value (idx in the high bits, amount in the low).
func command(idx, amount int64) int64 { return idx<<32 | amount }

func decode(v int64) (idx, amount int64) { return v >> 32, v & 0xffffffff }

var accounts = []string{"alice", "bob", "carol"}

func main() {
	flag.Parse()

	const n = 3
	cluster := realnet.NewInProcCluster(n, func(err error) { log.Println(err) })
	replicas := make([]*replica, n+1)
	var wg sync.WaitGroup
	for i := 1; i <= n; i++ {
		proc := cluster.Proc(neko.ProcessID(i))
		stack := neko.NewStack(proc)
		det := fd.NewHeartbeat(stack, 50, 35, nil)
		r := &replica{id: i, proc: proc, balance: make(map[string]int)}
		r.engine = consensus.NewEngine(stack, det, consensus.Options{})
		replicas[i] = r
		proc.Attach(stack)
	}
	cluster.Start()
	defer cluster.Close()

	// Submit 6 commands, alternating the replica that receives the client
	// request. Every replica proposes what it has seen; consensus picks
	// one proposal per slot, so all replicas apply the same sequence.
	commands := []int64{
		command(0, 100), command(1, 250), command(2, 40),
		command(0, 7), command(1, 13), command(2, 99),
	}
	for slot, cmd := range commands {
		slot, cmd := uint64(slot), cmd
		wg.Add(n)
		for i := 1; i <= n; i++ {
			r := replicas[i]
			r.proc.Invoke(func() {
				r.engine.Propose(slot, cmd, func(d consensus.Decision) {
					r.apply(d.Val)
					wg.Done()
				}, nil)
			})
		}
		wg.Wait() // deliver slot k everywhere before opening slot k+1
	}

	time.Sleep(10 * time.Millisecond)
	for i := 1; i <= n; i++ {
		r := replicas[i]
		r.mu.Lock()
		fmt.Printf("replica %d applied %d commands; balances: alice=%d bob=%d carol=%d\n",
			r.id, len(r.applied), r.balance["alice"], r.balance["bob"], r.balance["carol"])
		r.mu.Unlock()
	}
	a, b := replicas[1].snapshot(), replicas[2].snapshot()
	c := replicas[3].snapshot()
	if a != b || b != c {
		log.Fatalf("replicas diverged: %q %q %q", a, b, c)
	}
	fmt.Println("all replicas agree on the applied sequence — atomic broadcast via consensus works")
}

// apply executes a decided command on the replica state.
func (r *replica) apply(v int64) {
	idx, amount := decode(v)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.balance[accounts[idx]] += int(amount)
	r.applied = append(r.applied, v)
}

// snapshot renders the applied sequence for divergence checking.
func (r *replica) snapshot() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return fmt.Sprint(r.applied)
}
