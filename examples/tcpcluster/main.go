// Tcpcluster: the same consensus implementation the emulator executes in
// virtual time, running for real over loopback TCP — the paper's Neko
// design point (§2.5: Java on TCP/IP, connections established up front).
// Three processes mesh over 127.0.0.1, run a heartbeat failure detector,
// and decide a sequence of ten consensus instances.
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

func main() {
	flag.Parse()

	const n = 3
	cluster, err := realnet.NewTCPCluster(n, func(err error) { log.Println(err) })
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	engines := make([]*consensus.Engine, n+1)
	for i := 1; i <= n; i++ {
		proc := cluster.Proc(neko.ProcessID(i))
		stack := neko.NewStack(proc)
		det := fd.NewHeartbeat(stack, 100, 70, nil) // generous T: loopback jitter is benign
		engines[i] = consensus.NewEngine(stack, det, consensus.Options{})
		proc.Attach(stack)
	}
	cluster.Start()
	time.Sleep(20 * time.Millisecond) // let heartbeats flow

	for k := uint64(0); k < 10; k++ {
		var (
			wg       sync.WaitGroup
			mu       sync.Mutex
			decision int64
			first    = true
			started  = time.Now()
		)
		wg.Add(n)
		for i := 1; i <= n; i++ {
			i := i
			proc := cluster.Proc(neko.ProcessID(i))
			proc.Invoke(func() {
				engines[i].Propose(k, int64(1000*int(k)+i), func(d consensus.Decision) {
					mu.Lock()
					if first {
						decision = d.Val
						first = false
						fmt.Printf("instance %d: decided %d in %.2f ms\n",
							k, d.Val, float64(time.Since(started))/float64(time.Millisecond))
					} else if d.Val != decision {
						log.Fatalf("instance %d: agreement violated (%d vs %d)", k, d.Val, decision)
					}
					mu.Unlock()
					wg.Done()
				}, nil)
			})
		}
		wg.Wait()
	}
	fmt.Println("10 consensus instances decided consistently over real TCP")
}
