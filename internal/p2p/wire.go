// Package p2p runs the paper's protocol stack — Newscast peer sampling,
// per-node solver, anti-entropy best-point diffusion — over real TCP
// sockets, one goroutine-per-node, using only the standard library. It
// demonstrates that the framework is not simulator-bound: the identical
// three-service architecture drives both the sim-backed core package and
// live processes (cmd/p2pnode, examples/livecluster).
//
// Transport model: every exchange is one short-lived TCP connection
// carrying a gob-encoded request Envelope and one reply Envelope. Failed
// dials are treated exactly like the paper treats lost messages — the
// exchange is skipped and diffusion merely slows down; repeatedly
// unreachable peers age out of the view.
package p2p

import (
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"sort"
	"time"
)

// Message kinds.
const (
	kindViewExchange = iota + 1
	kindBestExchange
)

// maxEnvelopeBytes bounds what one exchange reads from a peer, so a
// hostile length prefix costs at most this many bytes of input. The largest
// legitimate envelope is a view exchange of c + 1 descriptors or a best
// exchange carrying one d-dimensional point. Gob-encoded with
// maximum-length addresses (a 253-byte host plus ":65535"), a c = 20 view
// is 6.2 kB and a 1 000-dimensional point 9.5 kB; 256 KiB still fits views
// of c = 950 and points of 29 000 dimensions.
const maxEnvelopeBytes = 256 << 10

// decodeEnvelope reads one envelope from conn, never more than
// maxEnvelopeBytes of it.
func decodeEnvelope(conn net.Conn, env *Envelope) error {
	return gob.NewDecoder(io.LimitReader(conn, maxEnvelopeBytes)).Decode(env)
}

// Descriptor is a Newscast node descriptor on the wire: peer address plus
// logical timestamp (wall-clock nanoseconds; nodes need only be loosely
// synchronized for freshness comparison, as in the original Newscast).
type Descriptor struct {
	Addr  string
	Stamp int64
}

// Envelope is the single wire message; Kind selects which fields matter.
type Envelope struct {
	Kind int
	From string
	// View exchange payload.
	View []Descriptor
	// Best exchange payload.
	X   []float64
	F   float64
	Has bool
}

// roundTrip dials addr, sends req and decodes one reply.
func roundTrip(addr string, req *Envelope, timeout time.Duration) (*Envelope, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("p2p: dial %s: %w", addr, err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return nil, err
	}
	if err := gob.NewEncoder(conn).Encode(req); err != nil {
		return nil, fmt.Errorf("p2p: send to %s: %w", addr, err)
	}
	var resp Envelope
	if err := decodeEnvelope(conn, &resp); err != nil {
		return nil, fmt.Errorf("p2p: recv from %s: %w", addr, err)
	}
	return &resp, nil
}

// view is a bounded freshest-first descriptor set keyed by address, the
// TCP-flavored twin of overlay.View.
type view struct {
	c     int
	items []Descriptor
}

func newWireView(c int) *view { return &view{c: c} }

func (v *view) len() int { return len(v.items) }

func (v *view) addrs() []string {
	out := make([]string, len(v.items))
	for i, d := range v.items {
		out[i] = d.Addr
	}
	return out
}

func (v *view) snapshot() []Descriptor {
	return append([]Descriptor(nil), v.items...)
}

func (v *view) remove(addr string) {
	for i, d := range v.items {
		if d.Addr == addr {
			v.items = append(v.items[:i], v.items[i+1:]...)
			return
		}
	}
}

// tieHash is the FNV-1a hash of a descriptor's address and stamp, the
// counterpart of overlay's mix: freshness ties broken by address order
// would favor low addresses in every view and grow hubs.
func tieHash(d Descriptor) uint64 {
	h := fnv.New64a()
	h.Write([]byte(d.Addr)) // a hash.Hash never returns an error
	h.Write(binary.LittleEndian.AppendUint64(nil, uint64(d.Stamp)))
	return h.Sum64()
}

// merge folds batch into the view: drop self, keep freshest per address,
// cap at c freshest overall (hash tie-break as in overlay.View, address
// last so the order is total).
func (v *view) merge(self string, batch []Descriptor) {
	best := make(map[string]Descriptor, len(v.items)+len(batch))
	for _, d := range v.items {
		best[d.Addr] = d
	}
	for _, d := range batch {
		if d.Addr == self || d.Addr == "" {
			continue
		}
		if cur, ok := best[d.Addr]; !ok || d.Stamp > cur.Stamp {
			best[d.Addr] = d
		}
	}
	merged := make([]Descriptor, 0, len(best))
	for _, d := range best {
		merged = append(merged, d)
	}
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].Stamp != merged[j].Stamp {
			return merged[i].Stamp > merged[j].Stamp
		}
		if hi, hj := tieHash(merged[i]), tieHash(merged[j]); hi != hj {
			return hi < hj
		}
		return merged[i].Addr < merged[j].Addr
	})
	if len(merged) > v.c {
		merged = merged[:v.c]
	}
	v.items = merged
}
