package workloads

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
	"unsafe"

	"jord/internal/server/router"
	"jord/internal/server/state"
)

// This file ports the social-network graph (DeathStarBench's social app,
// the same graph buildSocial models on the simulator) to LIVE stateful
// functions over the shared-state tier: the graph, timelines, posts, and
// profiles live in store-owned VMAs and every access walks the permission
// model — pcopy R snapshots for reads, pmove RW ownership for updates,
// G-bit promotion for the hot read-mostly objects (profiles, hot posts).
//
// Two registrations exist so the two stores can be compared head-to-head
// (BenchmarkSocialMix/{shared,copy}) and checked against each other
// (TestSocialLiveFlow):
//
//   - RegisterSocialLive ("social.*"): shared state. Reads are zero-copy
//     aliases of the committed value; read-modify-writes take exclusive
//     ownership of exactly the keys they touch.
//   - RegisterSocialCopy ("socialcopy.*"): the copy-per-request baseline a
//     conventional FaaS state service imposes — every read and every write
//     crosses the store boundary by value (memcpy).
//
// The function bodies are identical; only the store behind them differs.
//
// The bodies scan the stored newline lists in place (nextField) and hold
// each snapshot until they are done with the bytes it aliases, so what
// they allocate per request does not grow with a list's length: the keys
// they build, the values they commit (one per updated key), the post body
// they store and the response. A follow of an edge that already exists
// allocates the same whether the user follows four others or two thousand
// (TestSocialFollowAllocsFlat). Neither list update decodes a list rune
// by rune: a follow looks its user name up as a substring (hasField), and
// a fan-out finds the timeline's kept prefix eight bytes at a time
// (listPrefix) and copies it as one slice.

// Live social functions and their payloads (whitespace-separated tokens):
//
//	social.follow    "<user> <followee>"  update both graph directions
//	social.post      "<user> <text...>"   store post, fan out to timelines
//	social.timeline  "<user>"             assemble the user's feed
//	social.read      "<post-id>"          read one post (hot-key path)
//	social.profile   "<user>"             read-mostly profile blob

// timelineCap bounds each materialized timeline (newest first), like the
// bounded Redis lists real timeline services keep.
const timelineCap = 32

// feedPosts is how many posts social.timeline resolves per request.
const feedPosts = 10

// takeRetries bounds the bounded-spin on StateTake contention: the store
// never blocks a taker (ErrTaken is immediate), so contended updates yield
// and retry instead of parking an executor runner.
const takeRetries = 64

// socialStore is the tiny store seam the social bodies run over: the
// shared-state tier or the copying baseline.
type socialStore interface {
	// read returns the value (nil, false if absent) plus, for zero-copy
	// stores, the snapshot val aliases (nil when there is nothing to
	// release).
	read(ctx router.Ctx, key string) (val []byte, ok bool, snap router.StateSnap, err error)
	// write creates or replaces key.
	write(ctx router.Ctx, key string, val []byte) error
	// update commits f(current value, arg) — the current value nil if
	// absent — and returns it. Exclusive per key for the duration of f.
	// arg is passed through so that f need not be a closure.
	update(ctx router.Ctx, key, arg string, f func(old []byte, arg string) []byte) ([]byte, error)
}

// release returns a snapshot that read handed out, if there is one.
func release(sn router.StateSnap) {
	if sn != nil {
		sn.Release()
	}
}

// sharedStore backs the social bodies with the node-global tier of the
// shared-state store via the invocation's own LiveCtx — every operation is
// permission-checked against the invocation's protection domain.
type sharedStore struct{}

func (sharedStore) read(ctx router.Ctx, key string) ([]byte, bool, router.StateSnap, error) {
	sn, err := ctx.StateGet(router.StateGlobal, key)
	if err != nil {
		if errors.Is(err, state.ErrNotFound) {
			return nil, false, nil, nil
		}
		return nil, false, nil, err
	}
	return sn.Bytes(), true, sn, nil
}

func (sharedStore) write(ctx router.Ctx, key string, val []byte) error {
	_, err := ctx.StatePut(router.StateGlobal, key, val)
	return err
}

func (sharedStore) update(ctx router.Ctx, key, arg string, f func(old []byte, arg string) []byte) ([]byte, error) {
	for attempt := 0; ; attempt++ {
		tx, err := ctx.StateTake(router.StateGlobal, key)
		if err != nil {
			// Another invocation owns the key this instant; yield and retry
			// rather than blocking an executor runner on state contention.
			if errors.Is(err, state.ErrTaken) && attempt < takeRetries {
				if cerr := ctx.Err(); cerr != nil {
					return nil, cerr
				}
				runtime.Gosched()
				continue
			}
			return nil, err
		}
		next := f(tx.Bytes(), arg)
		if _, err := tx.Commit(next); err != nil {
			tx.Discard()
			return nil, err
		}
		return next, nil
	}
}

// copyStore is the conventional baseline: a mutex-guarded map that copies
// every value in on write and out on read, as a store behind a serialization
// boundary (Redis, a state API) must.
type copyStore struct {
	mu sync.RWMutex
	m  map[string][]byte
}

func (s *copyStore) read(_ router.Ctx, key string) ([]byte, bool, router.StateSnap, error) {
	s.mu.RLock()
	v, ok := s.m[key]
	var out []byte
	if ok {
		out = append([]byte(nil), v...)
	}
	s.mu.RUnlock()
	if !ok {
		return nil, false, nil, nil
	}
	return out, true, nil, nil
}

func (s *copyStore) write(_ router.Ctx, key string, val []byte) error {
	cp := append([]byte(nil), val...)
	s.mu.Lock()
	s.m[key] = cp
	s.mu.Unlock()
	return nil
}

func (s *copyStore) update(_ router.Ctx, key, arg string, f func(old []byte, arg string) []byte) ([]byte, error) {
	s.mu.Lock()
	// The copy out and copy back in are both real costs of the boundary.
	next := f(append([]byte(nil), s.m[key]...), arg)
	s.m[key] = append([]byte(nil), next...)
	s.mu.Unlock()
	return next, nil
}

// RegisterSocialLive deploys the social graph as live functions over the
// shared-state tier under the "social." prefix.
func RegisterSocialLive(reg *router.Registry) {
	registerSocialBodies(reg, "social.", sharedStore{})
}

// RegisterSocialCopy deploys the identical bodies over the copy-per-request
// baseline under the "socialcopy." prefix.
func RegisterSocialCopy(reg *router.Registry) {
	registerSocialBodies(reg, "socialcopy.", &copyStore{m: make(map[string][]byte)})
}

// Key layout (all node-global: the graph is shared by every function):
//
//	sg:flw:<user>  newline list of users <user> follows
//	sg:fan:<user>  newline list of <user>'s followers (the fan-out set)
//	cnt:<user>     decimal post counter (post-id allocator)
//	post:<id>      post body; id = <user>/<n>
//	tl:<user>      newline list of post ids, newest first, capped
//	prof:<user>    profile blob (read-mostly; promotes under read load)

func registerSocialBodies(reg *router.Registry, prefix string, st socialStore) {
	reg.MustRegister(prefix+"follow", func(ctx router.Ctx) ([]byte, error) {
		user, followee, err := twoFields(ctx.Payload())
		if err != nil {
			return nil, err
		}
		// Both graph directions, each an exclusive-ownership RMW of exactly
		// one key. No cross-key transaction: the social graph tolerates the
		// one-sided window (DeathStarBench updates the two Redis sets
		// independently too).
		if _, err := st.update(ctx, "sg:flw:"+user, followee, addLine); err != nil {
			return nil, err
		}
		if _, err := st.update(ctx, "sg:fan:"+followee, user, addLine); err != nil {
			return nil, err
		}
		return []byte("ok"), nil
	})

	reg.MustRegister(prefix+"post", func(ctx router.Ctx) ([]byte, error) {
		user, text, err := twoFields(ctx.Payload()) // text = rest of payload
		if err != nil {
			return nil, err
		}
		// Allocate the post id from the author's counter (exclusive RMW).
		cnt, err := st.update(ctx, "cnt:"+user, "", bumpCount)
		if err != nil {
			return nil, err
		}
		id := user + "/" + string(cnt)
		if err := st.write(ctx, "post:"+id, []byte(text)); err != nil {
			return nil, err
		}
		// Fan out: the author's own timeline plus every follower's. The
		// follower set is a read snapshot scanned in place, so it stays held
		// until the last timeline update. The invocation never takes the
		// key it holds that snapshot of: every update is to a tl: key.
		fans, _, sn, err := st.read(ctx, "sg:fan:"+user)
		if err != nil {
			return nil, err
		}
		defer release(sn)
		if _, err := st.update(ctx, "tl:"+user, id, prependTimeline); err != nil {
			return nil, err
		}
		for f, rest := nextField(fans); f != nil; f, rest = nextField(rest) {
			if string(f) == user {
				continue
			}
			if _, err := st.update(ctx, "tl:"+string(f), id, prependTimeline); err != nil {
				return nil, err
			}
		}
		return []byte(id), nil
	})

	reg.MustRegister(prefix+"timeline", func(ctx router.Ctx) ([]byte, error) {
		user := strings.TrimSpace(string(ctx.Payload()))
		if user == "" {
			return nil, fmt.Errorf("social: timeline wants a user name")
		}
		tl, ok, tlSnap, err := st.read(ctx, "tl:"+user)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, nil
		}
		defer release(tlSnap)
		// The newest feedPosts ids alias the timeline snapshot, and each
		// post body its own snapshot: all stay held until the feed is built.
		var ids, bodies [feedPosts][]byte
		var snaps [feedPosts]router.StateSnap
		n := 0
		for f, rest := nextField(tl); f != nil && n < feedPosts; f, rest = nextField(rest) {
			ids[n] = f
			n++
		}
		defer func() {
			for _, sn := range snaps[:n] {
				release(sn)
			}
		}()
		// Resolve each post: the read-heavy inner loop the zero-copy
		// snapshot path exists for. A missing post leaves no line.
		size := 0
		for i, id := range ids[:n] {
			body, ok, sn, err := st.read(ctx, "post:"+string(id))
			if err != nil {
				return nil, err
			}
			bodies[i], snaps[i] = body, sn
			if !ok {
				ids[i] = nil
				continue
			}
			size += len(id) + len(body) + 2
		}
		feed := make([]byte, 0, size)
		for i, id := range ids[:n] {
			if id != nil {
				feed = append(feed, id...)
				feed = append(feed, ' ')
				feed = append(feed, bodies[i]...)
				feed = append(feed, '\n')
			}
		}
		return feed, nil
	})

	reg.MustRegister(prefix+"read", func(ctx router.Ctx) ([]byte, error) {
		id := strings.TrimSpace(string(ctx.Payload()))
		body, ok, sn, err := st.read(ctx, "post:"+id)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, nil
		}
		// The result must outlive the body (it becomes the response ArgBuf),
		// so it is copied out of the snapshot alias — both variants pay this
		// equally; the store-boundary copy is what differs.
		out := append([]byte(nil), body...)
		release(sn)
		return out, nil
	})

	reg.MustRegister(prefix+"profile", func(ctx router.Ctx) ([]byte, error) {
		user := strings.TrimSpace(string(ctx.Payload()))
		if user == "" {
			return nil, fmt.Errorf("social: profile wants a user name")
		}
		for {
			prof, ok, sn, err := st.read(ctx, "prof:"+user)
			if err != nil {
				return nil, err
			}
			if ok {
				out := append([]byte(nil), prof...)
				release(sn)
				return out, nil
			}
			// First sight of this user: materialize a default profile, then
			// reread (a racing creator may have won; either value is fine).
			if err := st.write(ctx, "prof:"+user, []byte("name="+user+" joined=2026 bio=jord")); err != nil {
				return nil, err
			}
		}
	})
}

// twoFields splits "<first> <rest...>"; rest keeps its internal spacing.
func twoFields(payload []byte) (first, rest string, err error) {
	s := strings.TrimSpace(string(payload))
	i := strings.IndexByte(s, ' ')
	if i < 0 {
		return "", "", fmt.Errorf("social: payload %q wants two fields", s)
	}
	return s[:i], strings.TrimSpace(s[i+1:]), nil
}

// asciiSpace marks the bytes below utf8.RuneSelf that strings.Fields
// splits on.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// nextField splits the first field off b, by exactly strings.Fields' rule,
// and returns it with the rest of b to scan. field is nil when b holds no
// field. Both alias b, so scanning a stored list allocates nothing:
//
//	for f, rest := nextField(b); f != nil; f, rest = nextField(rest) { ... }
func nextField(b []byte) (field, rest []byte) {
	i := skipRunes(b, 0, true)
	if i == len(b) {
		return nil, nil
	}
	j := skipRunes(b, i, false)
	return b[i:j], b[j:]
}

// skipRunes returns the index of the first rune of b at or after i that is
// not space if space is set, or is space if not — strings.Fields' space:
// asciiSpace below utf8.RuneSelf, unicode.IsSpace of the decoded rune at
// or above it (an invalid byte decodes as a one-byte utf8.RuneError, which
// is not space).
func skipRunes(b []byte, i int, space bool) int {
	for i < len(b) {
		if c := b[i]; c < utf8.RuneSelf {
			if asciiSpace[c] != space {
				return i
			}
			i++
			continue
		}
		r, w := utf8.DecodeRune(b[i:])
		if unicode.IsSpace(r) != space {
			return i
		}
		i += w
	}
	return i
}

// bumpCount is the post-id allocator's update: the decimal counter plus
// one. The counter is read as strconv.ParseUint(old, 10, 64) reads it,
// with its error dropped — a malformed value counts as 0 and an
// overflowing one as the maximum — but without copying old into a string.
func bumpCount(old []byte, _ string) []byte {
	var n uint64
	for _, c := range old {
		d := uint64(c - '0')
		if d > 9 {
			n = 0
			break
		}
		if n > (math.MaxUint64-d)/10 {
			n = math.MaxUint64
			break
		}
		n = n*10 + d
	}
	return strconv.AppendUint(nil, n+1, 10)
}

// addLine appends line to a newline-separated set if absent; when it is
// present it returns old itself. A line that is one field of bytes
// 0x21–0x7F — every user name the social bodies build — is looked up as a
// substring (hasField); any other line is compared field by field.
func addLine(old []byte, line string) []byte {
	if isWord(line) {
		if hasField(old, line) {
			return old
		}
	} else {
		for f, rest := nextField(old); f != nil; f, rest = nextField(rest) {
			if string(f) == line {
				return old
			}
		}
	}
	out := make([]byte, 0, len(old)+len(line)+1)
	out = append(out, old...)
	if len(out) > 0 && out[len(out)-1] != '\n' {
		out = append(out, '\n')
	}
	out = append(out, line...)
	return out
}

// isWord reports whether s is nonempty and all bytes 0x21–0x7F: one field
// to strings.Fields, and a run of whole runes wherever it appears in a
// list (an ASCII byte is never part of a multi-byte UTF-8 sequence, valid
// or not).
func isWord(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c <= ' ' || c >= utf8.RuneSelf {
			return false
		}
	}
	return s != ""
}

// hasField reports whether word (isWord) is one of old's fields: an
// occurrence of it whose neighbouring runes, if any, are space by
// strings.Fields' rule.
func hasField(old []byte, word string) bool {
	// strings.Index over a string view of old: the view is only read, and
	// it does not outlive the call.
	s := unsafe.String(unsafe.SliceData(old), len(old))
	for i := 0; ; {
		j := strings.Index(s[i:], word)
		if j < 0 {
			return false
		}
		start, end := i+j, i+j+len(word)
		if spaceBefore(old[:start]) && (end == len(old) || skipRunes(old, end, true) > end) {
			return true
		}
		i = start + 1
	}
}

// spaceBefore reports whether b is empty or ends in a space rune.
func spaceBefore(b []byte) bool {
	if len(b) == 0 {
		return true
	}
	if c := b[len(b)-1]; c < utf8.RuneSelf {
		return asciiSpace[c]
	}
	r, _ := utf8.DecodeLastRune(b)
	return unicode.IsSpace(r)
}

// prependLine pushes line onto a newline list, newest first, capped at max.
// Every field of old takes at most its own length plus one separator, so
// the one allocation is the result. A list that opens with its first
// max−1 fields in canonical form (listPrefix) is copied as one slice.
func prependLine(old []byte, line string, max int) []byte {
	if max > 1 {
		if cut, ok := listPrefix(old, max-1); ok {
			out := make([]byte, 0, len(line)+1+cut)
			out = append(out, line...)
			out = append(out, '\n')
			return append(out, old[:cut]...)
		}
	}
	out := make([]byte, 0, len(old)+len(line)+1)
	out = append(out, line...)
	kept := 1
	for f, rest := nextField(old); f != nil && kept < max; f, rest = nextField(rest) {
		out = append(out, '\n')
		out = append(out, f...)
		kept++
	}
	return out
}

// Byte-lane constants for listPrefix's eight-bytes-at-a-time scan.
const (
	lanes7F = 0x7f7f7f7f7f7f7f7f
	lanes80 = 0x8080808080808080
	lanesNL = 0x0a0a0a0a0a0a0a0a
	lanes5F = 0x5f5f5f5f5f5f5f5f // 0x80 − 0x21: carries into bit 7 from 0x21 up
)

// listPrefix reports whether old opens with k ≥ 1 fields (or all of its
// fields, if it has fewer) written canonically: each field bytes
// 0x21–0x7F, joined by single '\n', with nothing before the first. cut
// is then where the k-th field ends, so old[:cut] is exactly those fields
// joined by '\n' — what the field-by-field loop would rebuild. It reads
// old a word at a time and stops at the k-th separator.
func listPrefix(old []byte, k int) (cut int, ok bool) {
	prevNL := uint64(1) // a '\n' at old[0] would open an empty field
	for i := 0; i < len(old); i += 8 {
		var w uint64
		if len(old)-i >= 8 {
			w = binary.LittleEndian.Uint64(old[i:])
		} else {
			// The tail, padded with a field byte that ends nothing.
			pad := [8]byte{'x', 'x', 'x', 'x', 'x', 'x', 'x', 'x'}
			copy(pad[:], old[i:])
			w = binary.LittleEndian.Uint64(pad[:])
		}
		x := w ^ lanesNL
		nl := ^((x&lanes7F + lanes7F) | x | lanes7F) // bit 7 of each '\n' lane
		low := ^(w&lanes7F + lanes5F) & lanes80      // bit 7 of each lane below 0x21 (of its low 7 bits)
		n := bits.OnesCount64(nl)
		var kth uint64 // bit 7 of the k-th '\n' lane, if this word holds it
		keep := ^uint64(0)
		if n >= k {
			kth = nl
			for j := 1; j < k; j++ {
				kth &= kth - 1
			}
			kth &= -kth
			keep = kth | (kth - 1) // the lanes up to and including it
			nl &= keep
		}
		if w&lanes80&keep != 0 || low&keep != nl || nl&(nl<<8|prevNL<<7) != 0 {
			return 0, false // a byte outside 0x21–0x7F, or an empty field
		}
		if kth != 0 {
			return i + bits.TrailingZeros64(kth)/8, true
		}
		k -= n
		prevNL = nl >> 63
	}
	return len(old), len(old) > 0 && old[len(old)-1] != '\n'
}

// prependTimeline is the fan-out's update: id onto a capped timeline.
func prependTimeline(old []byte, id string) []byte {
	return prependLine(old, id, timelineCap)
}
