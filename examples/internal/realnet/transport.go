package realnet

import (
	"encoding/gob"
	"fmt"
	"net"
	"sync"

	"ctsan/internal/neko"
)

// InProcMesh is an in-process transport: messages pass directly between
// process event loops. It is the fastest way to run the protocol in real
// time within one OS process.
type InProcMesh struct {
	mu    sync.RWMutex
	procs map[neko.ProcessID]*Proc
}

// NewInProcMesh creates an empty mesh; register processes with Register.
func NewInProcMesh() *InProcMesh {
	return &InProcMesh{procs: make(map[neko.ProcessID]*Proc)}
}

// Register adds a process to the mesh.
func (m *InProcMesh) Register(p *Proc) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.procs[p.ID()] = p
}

// Send implements Transport.
func (m *InProcMesh) Send(msg neko.Message) error {
	m.mu.RLock()
	dst, ok := m.procs[msg.To]
	m.mu.RUnlock()
	if !ok {
		return fmt.Errorf("realnet: unknown destination p%d", msg.To)
	}
	dst.Deliver(msg)
	return nil
}

// Close implements Transport.
func (m *InProcMesh) Close() error { return nil }

// TCPNode is one endpoint of a TCP mesh: it owns a listener and one
// outbound connection per peer, established eagerly like the paper's
// testbed (§2.5).
type TCPNode struct {
	id       neko.ProcessID
	listener net.Listener
	mu       sync.Mutex
	encs     map[neko.ProcessID]*gob.Encoder
	conns    []net.Conn
	deliver  func(neko.Message)
	closed   bool
	wg       sync.WaitGroup
}

// NewTCPNode starts a listener for process id on 127.0.0.1 (ephemeral
// port). deliver receives inbound messages (from any goroutine).
func NewTCPNode(id neko.ProcessID, deliver func(neko.Message)) (*TCPNode, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("realnet: listen: %w", err)
	}
	n := &TCPNode{
		id:       id,
		listener: ln,
		encs:     make(map[neko.ProcessID]*gob.Encoder),
		deliver:  deliver,
	}
	n.wg.Add(1)
	go n.accept()
	return n, nil
}

// Addr returns the node's listen address for peers to dial.
func (n *TCPNode) Addr() string { return n.listener.Addr().String() }

// Connect dials the peer at addr; all messages to that peer use the
// resulting connection.
func (n *TCPNode) Connect(peer neko.ProcessID, addr string) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("realnet: dial p%d: %w", peer, err)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		conn.Close()
		return fmt.Errorf("realnet: node closed")
	}
	n.conns = append(n.conns, conn)
	n.encs[peer] = gob.NewEncoder(conn)
	return nil
}

// accept handles inbound connections, decoding messages until EOF.
func (n *TCPNode) accept() {
	defer n.wg.Done()
	for {
		conn, err := n.listener.Accept()
		if err != nil {
			return // listener closed
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			conn.Close()
			return
		}
		n.conns = append(n.conns, conn)
		n.mu.Unlock()
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			dec := gob.NewDecoder(conn)
			for {
				var m neko.Message
				if err := dec.Decode(&m); err != nil {
					return
				}
				n.deliver(m)
			}
		}()
	}
}

// Send implements Transport.
func (n *TCPNode) Send(m neko.Message) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	enc, ok := n.encs[m.To]
	if !ok {
		return fmt.Errorf("realnet: no connection to p%d", m.To)
	}
	return enc.Encode(m)
}

// Close implements Transport: closes the listener and all connections.
func (n *TCPNode) Close() error {
	n.mu.Lock()
	n.closed = true
	conns := n.conns
	n.conns = nil
	n.mu.Unlock()
	err := n.listener.Close()
	for _, c := range conns {
		c.Close()
	}
	n.wg.Wait()
	return err
}

// Cluster bundles n real-time processes over a transport, ready for
// protocol stacks. It is the real-time analogue of netsim.Cluster.
type Cluster struct {
	Procs []*Proc // index 0 holds process 1
	nodes []*TCPNode
	mesh  *InProcMesh
}

// NewInProcCluster creates n processes over the in-process transport.
func NewInProcCluster(n int, errFn func(error)) *Cluster {
	mesh := NewInProcMesh()
	c := &Cluster{mesh: mesh}
	for i := 1; i <= n; i++ {
		p := NewProc(neko.ProcessID(i), n, mesh, errFn)
		mesh.Register(p)
		c.Procs = append(c.Procs, p)
	}
	return c
}

// NewTCPCluster creates n processes meshed over loopback TCP.
func NewTCPCluster(n int, errFn func(error)) (*Cluster, error) {
	c := &Cluster{}
	for i := 1; i <= n; i++ {
		i := i
		var proc *Proc
		node, err := NewTCPNode(neko.ProcessID(i), func(m neko.Message) {
			proc.Deliver(m)
		})
		if err != nil {
			c.Close()
			return nil, err
		}
		proc = NewProc(neko.ProcessID(i), n, node, errFn)
		c.nodes = append(c.nodes, node)
		c.Procs = append(c.Procs, proc)
	}
	// Full mesh, established before the test starts (§2.5).
	for i, node := range c.nodes {
		for j, peer := range c.nodes {
			if i == j {
				continue
			}
			if err := node.Connect(neko.ProcessID(j+1), peer.Addr()); err != nil {
				c.Close()
				return nil, err
			}
		}
	}
	return c, nil
}

// Proc returns the process with the given id.
func (c *Cluster) Proc(id neko.ProcessID) *Proc { return c.Procs[id-1] }

// Start runs every process loop in its own goroutine.
func (c *Cluster) Start() {
	for _, p := range c.Procs {
		go p.Run()
	}
}

// Close stops all processes and transports.
func (c *Cluster) Close() {
	for _, p := range c.Procs {
		if p != nil {
			p.Stop()
		}
	}
	for _, n := range c.nodes {
		if n != nil {
			n.Close()
		}
	}
}
