package core

import "encoding/binary"

// keyTable gives every correlation key a dense id, so monitors keep their
// per-key state in slices indexed by it. A SAP-scoped key is found by
// its (SAP, value) pair and a SAP-independent key by its value, each
// with one probe; a pair's entry also names the SAP-independent key of
// its value, so one probe per event yields the ids of both key shapes.
//
// A key is held while some monitor keeps state for it (hold, drop) or a
// live SAP-scoped key names it as its value's key. A drained key stays
// in the table, so a key that recurs costs no allocation, until the
// table passes its limit: sweep then frees every key nothing holds and
// their ids are reused. The table and the monitors' slices so hold at
// most twice the most keys in flight at once plus keptKeys, not every
// key ever seen (per-message ids).
type keyTable struct {
	pairs  map[string]int32 // encoded (SAP, value) → id of the SAP-scoped key
	values map[string]int32 // value → id of the SAP-independent key
	keys   []Key            // id → key
	enc    []string         // id → its entry's key in pairs or values
	remote []int32          // id → id of the SAP-independent key of its value
	refs   []int32          // id → monitors holding it plus live keys naming it as remote; -1 when free
	free   []int32          // ids to reuse
	limit  int              // live ids past which sweep frees the drained ones
	roles  []string         // the SAP roles seen, encoded in a pair by index
	buf    []byte           // scratch: an encoded pair
	val    []byte           // scratch: a value given as a string
}

func newKeyTable() *keyTable {
	return &keyTable{pairs: make(map[string]int32), values: make(map[string]int32), limit: keptKeys}
}

// keptKeys is the least number of drained keys the table keeps for reuse.
const keptKeys = 1024

// add gives k an id, a freed one if any; enc is its entry's key and
// remote the id of its value's SAP-independent key (-1 for such a key,
// which is its own).
func (t *keyTable) add(k Key, enc string, remote int32) int32 {
	var id int32
	if n := len(t.free); n > 0 {
		id = t.free[n-1]
		t.free = t.free[:n-1]
		t.keys[id], t.enc[id], t.refs[id] = k, enc, 0
	} else {
		id = int32(len(t.keys))
		t.keys, t.enc, t.refs = append(t.keys, k), append(t.enc, enc), append(t.refs, 0)
		t.remote = append(t.remote, 0)
	}
	if remote < 0 {
		remote = id
	} else {
		t.refs[remote]++
	}
	t.remote[id] = remote
	return id
}

// value returns the id of the SAP-independent key of value, found by its
// bytes (m[string(b)] does not allocate).
func (t *keyTable) value(value []byte) int32 {
	if id, ok := t.values[string(value)]; ok {
		return id
	}
	s := string(value)
	id := t.add(Key{Value: s}, s, -1)
	t.values[s] = id
	return id
}

// pair returns the ids of the SAP-scoped key (sap, value) and of the
// SAP-independent key of value. At the zero SAP both are the same key.
//
//repolint:hotpath
func (t *keyTable) pair(sap SAP, value []byte) (local, remote int32) {
	if sap == (SAP{}) {
		id := t.value(value)
		return id, id
	}
	b := binary.AppendUvarint(t.buf[:0], uint64(t.role(sap.Role)))
	b = binary.AppendUvarint(b, uint64(len(sap.ID)))
	b = append(b, sap.ID...)
	b = append(b, value...)
	t.buf = b
	if id, ok := t.pairs[string(b)]; ok { //repolint:allow strmap -- the one key probe of an event
		return id, t.remote[id]
	}
	remote = t.value(value)
	enc := string(b)
	local = t.add(Key{SAP: sap, Value: t.keys[remote].Value}, enc, remote)
	t.pairs[enc] = local //repolint:allow strmap -- the first sighting of a key
	return local, remote
}

// sweep frees every key nothing holds once the table holds more than its
// limit, and sets the limit to keptKeys past what is left (at least
// twice it), so sweeping costs O(1) per key added. The observer sweeps
// once an event has passed every monitor, so the ids it handed out stay
// valid for the whole event.
func (t *keyTable) sweep() {
	if len(t.keys)-len(t.free) <= t.limit {
		return
	}
	for id, n := range t.refs {
		if n == 0 {
			t.release(int32(id))
		}
	}
	live := len(t.keys) - len(t.free)
	t.limit = live + max(keptKeys, live)
}

// release frees id, and its value's SAP-independent key when this was
// the last thing naming it.
func (t *keyTable) release(id int32) {
	if r := t.remote[id]; r != id {
		delete(t.pairs, t.enc[id])
		if t.refs[r]--; t.refs[r] == 0 {
			t.release(r)
		}
	} else {
		delete(t.values, t.enc[id])
	}
	t.keys[id], t.enc[id], t.refs[id] = Key{}, "", -1
	t.free = append(t.free, id)
}

// role returns the index of a SAP role. A service declares a handful of
// roles, so a scan beats hashing the name.
func (t *keyTable) role(r string) int {
	for i, x := range t.roles {
		if x == r {
			return i
		}
	}
	t.roles = append(t.roles, r)
	return len(t.roles) - 1
}

// id returns the id of k.
func (t *keyTable) id(k Key) int32 {
	t.val = append(t.val[:0], k.Value...)
	local, _ := t.pair(k.SAP, t.val)
	return local
}

// keyed is the key-id side of a monitor that keeps its per-key state in
// slices. Under an Observer the ids are the observer's (NewObserver
// hands keys its table); a monitor driven without one builds its own.
// A monitor calls hold when its state for a key turns nonzero and drop
// when it is zero again, so the table frees keys no monitor needs.
type keyed struct {
	keys *keyTable
}

// keyedMonitor is a Monitor indexing its state by key id.
type keyedMonitor interface {
	Monitor
	useKeys(*keyTable)
}

func (k *keyed) useKeys(t *keyTable) { k.keys = t }

// id returns the id of key, read off event e.
func (k *keyed) id(e *Event, key Key) int32 {
	if e.obs != nil {
		return e.obs.keyID(key)
	}
	if k.keys == nil {
		k.keys = newKeyTable()
	}
	// A monitor driven directly resolves one key per event, so no id of
	// an earlier event is still in use.
	k.keys.sweep()
	return k.keys.id(key)
}

func (k *keyed) hold(id int32) { k.keys.refs[id]++ }
func (k *keyed) drop(id int32) { k.keys.refs[id]-- }

// at returns a pointer to element id of *s, growing *s to cover it.
// Slices only grow, so elements past the length are still zero.
func at[T any](s *[]T, id int32) *T {
	if n := int(id) + 1; n > len(*s) {
		if n > cap(*s) {
			grown := make([]T, n, max(n, 2*cap(*s), 16))
			copy(grown, *s)
			*s = grown
		} else {
			*s = (*s)[:n]
		}
	}
	return &(*s)[id]
}

// minKeyID returns the id of the outstanding key that renders smallest,
// so an end-of-trace report names the same key on every run.
func minKeyID[V any](t *keyTable, state []V, outstanding func(V) bool) (id int32, found bool) {
	var least string
	for i, v := range state {
		if !outstanding(v) {
			continue
		}
		if s := t.keys[i].String(); !found || s < least {
			id, least, found = int32(i), s, true
		}
	}
	return id, found
}
