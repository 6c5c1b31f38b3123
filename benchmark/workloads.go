package main

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strconv"
)

// rigKind selects which slice of the live stack a workload drives.
type rigKind int

const (
	rigEdge    rigKind = iota // one worker daemon, clients on its edge socket
	rigCluster                // dispatcher over two worker daemons
	rigPool                   // in-process Pool.Invoke, no sockets
)

// The rig every workload boots (recorded in each result file). Small on
// purpose: the box has two cores, and the generator shares them.
const (
	rigExecutors     = 2
	rigOrchestrators = 1
	rigJBSQBound     = 4
	clusterWorkers   = 2
	socialUsers      = 4096
	socialZipfS      = 1.2
	followsPerUser   = 4 // pre-seeded follow edges per user, drawn like the mix draws them
	echoBytes        = 64
	graphBytes       = 1024
)

// workload is one traffic mix. rateRPS and sloUS were measured once on
// the dev box at the commit that introduced the benchmark and are frozen:
// changing them is a benchmark change, never part of a change that claims
// a gain.
//
// rateRPS is about a quarter of the closed-loop rps on the workloads that
// do not allocate (edge_echo, pool_graph), a sixth on cluster_echo and
// 2000/s on the social workloads. The issue asked for half; at that load
// one 10 ms stall — a neighbour on the box, or the collector's time slice
// on the single scheduler thread — backs up hundreds of requests and the
// generator sends more than 5% of them over a millisecond late. The social
// rate is lower still because the store's 60 MB of small objects make every
// collection a long affair: at 2000/s one starts every four seconds or so
// and touches a minority of the open loop's windows, at 4000/s most of them.
//
// sloUS is about three times the 99th percentile of every open-loop
// latency of a run (client.p99_us: the box's stalls and the collector's
// cycles included), two significant figures. On edge_echo and pool_graph
// that percentile is the box's, not the program's — 60-330 us and 35-60 us
// from one quiet run to the next, milliseconds in a busy one — and the
// limit is three times its upper end.
type workload struct {
	name    string
	why     string
	rig     rigKind
	rateRPS float64
	sloUS   float64
	// mix is the cumulative share of timeline / post / follow (the rest is
	// profile); zero for the non-social workloads.
	mix [3]float64
}

var workloadTable = []workload{
	{
		name: "edge_echo", rig: rigEdge, rateRPS: 19000, sloUS: 600,
		why: "64 B keyless echo at one worker's edge: smallest message, per-request gateway cost dominates; bypasses cluster, dedup and state",
	},
	{
		name: "cluster_echo", rig: rigCluster, rateRPS: 2500, sloUS: 2700,
		why: "same echo through the dispatcher over two workers: requests arrive keyed, so cluster relay, serveCold and the dedup cache do the work",
	},
	{
		name: "pool_graph", rig: rigPool, rateRPS: 26000, sloUS: 450,
		why: "in-process Pool.Invoke of chain and fanout over 1 KiB: JBSQ, PD table, ArgBuf pmove and suspend/resume only; no gateway, cluster or state",
	},
	{
		name: "social_read", rig: rigEdge, rateRPS: 2000, sloUS: 14000, mix: [3]float64{0.60, 0.85, 0.95},
		why: "social mix 60 timeline/25 post/10 follow/5 profile, Zipf(1.2) over 4096 seeded users, keyless at the edge: state Get dominates",
	},
	{
		name: "social_write", rig: rigEdge, rateRPS: 2000, sloUS: 31000, mix: [3]float64{0.15, 0.70, 0.95},
		why: "same functions and users, mix inverted to 15 timeline/55 post/25 follow/5 profile: state Take/Commit and demotion churn dominate",
	},
}

func (w *workload) social() bool { return w.mix[2] > 0 }

func findWorkload(name string) *workload {
	for i := range workloadTable {
		if workloadTable[i].name == name {
			return &workloadTable[i]
		}
	}
	return nil
}

// opKind tells the validator what a response must look like.
type opKind uint8

const (
	opEcho opKind = iota
	opChain
	opFanout
	opTimeline
	opPost
	opFollow
	opProfile
)

// op is one generated request. payload aliases generator scratch and is
// valid until the next call to next.
type op struct {
	fn      string
	kind    opKind
	payload []byte
	user    []byte // acting user, social ops only (aliases payload)
}

// generator draws one client's request stream. Every draw — users, mix,
// payload bytes — comes from its rng, which is seeded from the run's
// -seed, the workload and the client index; the program under test sees
// only the generated requests.
type generator struct {
	w     *workload
	rng   *rand.Rand
	users *userDraw
	buf   []byte
}

func newGenerator(w *workload, seed int64, client, clients int) *generator {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(client)*7919 + int64(len(w.name))))
	g := &generator{w: w, rng: rng, buf: make([]byte, 0, graphBytes)}
	if w.social() {
		g.users = newUserDraw(rng, client, clients)
	}
	return g
}

// userDraw draws users for one client: Zipf(1.2) over the client's own
// share of the users (user id mod clients == client).
//
// The clients act on disjoint shares so that no two concurrent invocations
// ever write the same key. With shared keys, the box descheduling a core
// for a few milliseconds while an invocation holds a key makes the other
// invocation burn its 64 ErrTaken retries and answer 500 — 0.2% of
// requests at the seed commit — and a run on which operations fail cannot
// be compared with another. The follow graph stays inside a share too, so
// a post's fan-out never leaves it.
type userDraw struct {
	rng             *rand.Rand
	zipf            *rand.Zipf
	client, clients uint64
}

func newUserDraw(rng *rand.Rand, client, clients int) *userDraw {
	return &userDraw{
		rng:    rng,
		zipf:   rand.NewZipf(rng, socialZipfS, 1, uint64(socialUsers/clients-1)),
		client: uint64(client), clients: uint64(clients),
	}
}

func (d *userDraw) user() uint64 { return d.zipf.Uint64()*d.clients + d.client }

// pair draws a follower (Zipf) and a distinct followee (flat).
//
// jordload draws the followee Zipf too. Over a run that piles hundreds of
// followers onto the hottest user, so a post by that user fans out for
// milliseconds, and longer the longer the run lasts: the windows of one
// run then disagree, and requests queue behind those posts on the
// generator's connection. With flat followees the fan-out stays near
// followsPerUser, and a workload means the same in its first second and
// its last.
func (d *userDraw) pair() (u, v uint64) {
	u = d.user()
	for v = u; v == u; {
		v = uint64(d.rng.Intn(socialUsers/int(d.clients)))*d.clients + d.client
	}
	return u, v
}

func (g *generator) randomBytes(n int) []byte {
	b := g.buf[:0]
	for len(b) < n {
		b = binary.LittleEndian.AppendUint64(b, g.rng.Uint64())
	}
	g.buf = b
	return b[:n]
}

func appendUser(b []byte, u uint64) []byte {
	return strconv.AppendUint(append(b, 'u'), u, 10)
}

func (g *generator) next(o *op) {
	switch {
	case g.w.rig == rigPool:
		o.payload = g.randomBytes(graphBytes)
		if g.rng.Intn(2) == 0 {
			o.fn, o.kind = "chain", opChain
		} else {
			o.fn, o.kind = "fanout", opFanout
		}
	case !g.w.social():
		o.fn, o.kind, o.payload = "echo", opEcho, g.randomBytes(echoBytes)
	default:
		g.nextSocial(o)
	}
}

// nextSocial draws the jordload social mix.
func (g *generator) nextSocial(o *op) {
	u, v := g.users.pair() // only a follow uses v; drawing it always keeps the stream aligned
	b := appendUser(g.buf[:0], u)
	ulen := len(b)
	switch r := g.rng.Float64(); {
	case r < g.w.mix[0]:
		o.fn, o.kind = "social.timeline", opTimeline
	case r < g.w.mix[1]:
		o.fn, o.kind = "social.post", opPost
		b = append(b, " musing "...)
		b = strconv.AppendInt(b, int64(g.rng.Intn(1_000_000)), 10)
		b = append(b, " about single-address-space serverless"...)
	case r < g.w.mix[2]:
		o.fn, o.kind = "social.follow", opFollow
		b = appendUser(append(b, ' '), v)
	default:
		o.fn, o.kind = "social.profile", opProfile
	}
	g.buf = b
	o.payload, o.user = b, b[:ulen]
}

// fnv1a is the leaf function's digest (FNV-1a, 64 bit), shared by the
// registered body and the generator-side recomputation.
func fnv1a(p []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range p {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// check recomputes what the program must have answered. It returns false
// for a wrong response; for a post it also hands back the new post id.
func (o *op) check(resp []byte) (ok bool, postID string) {
	switch o.kind {
	case opEcho:
		return bytes.Equal(resp, o.payload), ""
	case opChain:
		return len(resp) == 8 && binary.BigEndian.Uint64(resp) == fnv1a(o.payload), ""
	case opFanout:
		h := len(o.payload) / 2
		return len(resp) == 16 && binary.BigEndian.Uint64(resp) == fnv1a(o.payload[:h]) &&
			binary.BigEndian.Uint64(resp[8:]) == fnv1a(o.payload[h:]), ""
	case opTimeline:
		// Lines of "<author>/<n> <text>", at most the feed length.
		lines := 0
		for len(resp) > 0 {
			line := resp
			if i := bytes.IndexByte(resp, '\n'); i >= 0 {
				line, resp = resp[:i], resp[i+1:]
			} else {
				resp = nil
			}
			sp := bytes.IndexByte(line, ' ')
			if sp < 3 || line[0] != 'u' || bytes.IndexByte(line[:sp], '/') < 0 {
				return false, ""
			}
			lines++
		}
		return lines <= 10, ""
	case opPost:
		// "<user>/<n>": the id the author's counter allocated.
		n := len(o.user)
		if len(resp) < n+2 || !bytes.Equal(resp[:n], o.user) || resp[n] != '/' {
			return false, ""
		}
		for _, c := range resp[n+1:] {
			if c < '0' || c > '9' {
				return false, ""
			}
		}
		return true, string(resp)
	case opFollow:
		return string(resp) == "ok", ""
	case opProfile:
		n := len(o.user)
		return len(resp) > 5+n && string(resp[:5]) == "name=" && bytes.Equal(resp[5:5+n], o.user) && resp[5+n] == ' ', ""
	}
	return false, ""
}
