package workloads

import (
	"context"
	"math/rand"
	"strconv"
	"testing"

	"jord/internal/server/pool"
)

// The social benchmark rig's shape (benchmark/workloads.go): 4096 users,
// four seeded follows each, Zipf(1.2) draws within each client's share of
// the users, two clients (a 2-CPU box).
const (
	mixUsers   = 4096
	mixFollows = 4
	mixClients = 2
)

// mixDraw draws one client's users the way the benchmark rig does: the
// acting user Zipf over the client's share, the followee flat over it.
type mixDraw struct {
	rng             *rand.Rand
	zipf            *rand.Zipf
	client, clients uint64
}

func newMixDraw(rng *rand.Rand, client int) *mixDraw {
	return &mixDraw{
		rng:    rng,
		zipf:   rand.NewZipf(rng, 1.2, 1, uint64(mixUsers/mixClients-1)),
		client: uint64(client), clients: mixClients,
	}
}

func (d *mixDraw) pair() (u, v uint64) {
	u = d.zipf.Uint64()*d.clients + d.client
	for v = u; v == u; {
		v = uint64(d.rng.Intn(mixUsers/mixClients))*d.clients + d.client
	}
	return u, v
}

func appendMixUser(b []byte, u uint64) []byte {
	return strconv.AppendUint(append(b, 'u'), u, 10)
}

// seedSocialMix fills the store behind prefix ("social." or "socialcopy.")
// the way the benchmark rig does before its first request: a profile per
// user, the follow graph, one post per user.
func seedSocialMix(tb testing.TB, p *pool.Pool, prefix string) {
	tb.Helper()
	profile, follow, post := prefix+"profile", prefix+"follow", prefix+"post"
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1*2654435761 + 17))
	draws := make([]*mixDraw, mixClients)
	for c := range draws {
		draws[c] = newMixDraw(rng, c)
	}
	invoke := func(fn string, payload []byte) {
		if _, err := p.Invoke(ctx, fn, payload); err != nil {
			tb.Fatalf("seeding %s(%q): %v", fn, payload, err)
		}
	}
	buf := make([]byte, 0, 64)
	for u := uint64(0); u < mixUsers; u++ {
		invoke(profile, appendMixUser(buf[:0], u))
	}
	for i := 0; i < mixUsers*mixFollows; i++ {
		u, v := draws[i%mixClients].pair()
		invoke(follow, appendMixUser(append(appendMixUser(buf[:0], u), ' '), v))
	}
	for u := uint64(0); u < mixUsers; u++ {
		invoke(post, append(appendMixUser(buf[:0], u), " first post"...))
	}
}

// BenchmarkSocialMix runs the social_read and social_write request mixes
// (cumulative timeline / post / follow shares; the rest is profile) in
// process against a seeded store, one request at a time, round robin over
// the clients' request streams: on the shared-state tier ("social.*") and
// on the copy-per-request baseline ("socialcopy.*"), with the same draws.
// b.N fixes how far the follow lists grow, so compare runs at one
// -benchtime=Nx.
func BenchmarkSocialMix(b *testing.B) {
	mixes := []struct {
		name string
		mix  [3]float64
	}{
		{"write", [3]float64{0.15, 0.70, 0.95}},
		{"read", [3]float64{0.60, 0.85, 0.95}},
	}
	for _, store := range []struct{ name, prefix string }{
		{"shared", "social."},
		{"copy", "socialcopy."},
	} {
		timeline, post := store.prefix+"timeline", store.prefix+"post"
		follow, profile := store.prefix+"follow", store.prefix+"profile"
		for _, w := range mixes {
			b.Run(store.name+"/"+w.name, func(b *testing.B) {
				p, _ := startSocialPool(b, 0)
				seedSocialMix(b, p, store.prefix)
				name := "social_" + w.name
				rngs := make([]*rand.Rand, mixClients)
				draws := make([]*mixDraw, mixClients)
				for c := range rngs {
					rngs[c] = rand.New(rand.NewSource(1*1000003 + int64(c)*7919 + int64(len(name))))
					draws[c] = newMixDraw(rngs[c], c)
				}
				ctx := context.Background()
				buf := make([]byte, 0, 128)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c := i % mixClients
					u, v := draws[c].pair()
					buf = appendMixUser(buf[:0], u)
					var fn string
					switch r := rngs[c].Float64(); {
					case r < w.mix[0]:
						fn = timeline
					case r < w.mix[1]:
						fn = post
						buf = append(buf, " musing "...)
						buf = strconv.AppendInt(buf, int64(rngs[c].Intn(1_000_000)), 10)
						buf = append(buf, " about single-address-space serverless"...)
					case r < w.mix[2]:
						fn = follow
						buf = appendMixUser(append(buf, ' '), v)
					default:
						fn = profile
					}
					if _, err := p.Invoke(ctx, fn, buf); err != nil {
						b.Fatalf("%s(%q): %v", fn, buf, err)
					}
				}
			})
		}
	}
}

// BenchmarkSocialLists times the two list updates on their largest
// stored lists: a follow of an edge that already exists, found at the end
// of a 2,047-entry follow list, and a post pushed onto a full timeline.
func BenchmarkSocialLists(b *testing.B) {
	var flw []byte
	for i := 0; i < 2047; i++ {
		flw = addLine(flw, "u"+strconv.Itoa(i))
	}
	var tl []byte
	for i := 0; i < timelineCap; i++ {
		tl = prependTimeline(tl, "u"+strconv.Itoa(i)+"/"+strconv.Itoa(i))
	}
	b.Run("addLine-dup-2047", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if out := addLine(flw, "u2046"); len(out) != len(flw) {
				b.Fatal("duplicate follow grew the list")
			}
		}
	})
	b.Run("prependLine-32", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			prependTimeline(tl, "u9/99")
		}
	})
}
