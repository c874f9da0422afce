package stack

// coreTable is the RoundRobinCores steering history: the core each flow
// hash drew when first seen. A Go map would spend about 18 B an entry on
// a 4-byte key and a core that fits in a byte; this table spends 64 B per
// 12 entries at a load between 7/12 and 7/8 (6.7 B an entry at the 32 770
// hashes of a short-flow NSM stack).
//
// It is open-addressed over groups of one cache line each. A key's home
// group is its mixed hash mapped onto the group count by a multiply-shift,
// so the count need not be a power of two; a full group overflows into the
// next one, wrapping at the end. Entries are never deleted, so a group's
// slots [0, n) are all filled, key 0 needs no sentinel, and a key is
// absent once the walk meets a group with a free slot. The table grows by
// 1.5× before its load would pass 7/8, so some group always has a free
// slot and every walk ends.
type coreTable struct {
	groups []coreGroup
	n      int // entries
}

const coreGroupSlots = 12

// coreGroup is one 64-byte cache line of the table: keys[:n] and their
// cores, filled in insertion order.
type coreGroup struct {
	keys  [coreGroupSlots]uint32
	cores [coreGroupSlots]uint8
	n     uint8
	_     [3]byte
}

// maxSteeredCores is the most cores a table entry's byte can name.
const maxSteeredCores = 1 << 8

// minCoreGroups is the table's size at its first entry.
const minCoreGroups = 8

// fmix32 is murmur3's 32-bit finalizer: a fixed bijection that spreads
// every input bit over the output, so nearby flow hashes land in
// unrelated groups.
func fmix32(h uint32) uint32 {
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return h
}

// home is the group a key's walk starts at among ngroups.
func home(key uint32, ngroups int) int {
	return int(uint64(fmix32(key)) * uint64(ngroups) >> 32)
}

// find walks key's chain. It returns the group and slot holding key, or,
// when key is absent, the group where the walk ended and its first free
// slot (nil in an empty table).
//
// In each group it takes the lowest slot whose key matches, free slots
// included, and then checks the slot against the fill count. The compares
// are unrolled, in reverse so the lowest slot wins, and compile to a
// compare and a conditional move per slot: a hit costs no branch that
// depends on where in the group its key sits.
func (t *coreTable) find(key uint32) (grp *coreGroup, slot int, ok bool) {
	if len(t.groups) == 0 {
		return nil, 0, false
	}
	g := home(key, len(t.groups))
	for {
		grp = &t.groups[g]
		k := &grp.keys
		i := coreGroupSlots
		if k[11] == key {
			i = 11
		}
		if k[10] == key {
			i = 10
		}
		if k[9] == key {
			i = 9
		}
		if k[8] == key {
			i = 8
		}
		if k[7] == key {
			i = 7
		}
		if k[6] == key {
			i = 6
		}
		if k[5] == key {
			i = 5
		}
		if k[4] == key {
			i = 4
		}
		if k[3] == key {
			i = 3
		}
		if k[2] == key {
			i = 2
		}
		if k[1] == key {
			i = 1
		}
		if k[0] == key {
			i = 0
		}
		if i < int(grp.n) {
			return grp, i, true
		}
		if grp.n < coreGroupSlots {
			return grp, int(grp.n), false
		}
		if g++; g == len(t.groups) {
			g = 0
		}
	}
}

// get returns the core key drew, if it has drawn one. It stays within the
// inliner's budget, so a hit in coreFor makes one call, to find.
func (t *coreTable) get(key uint32) (core uint8, ok bool) {
	grp, i, ok := t.find(key)
	if ok {
		core = grp.cores[i]
	}
	return core, ok
}

// put records core for key, which get has just missed.
func (t *coreTable) put(key uint32, core uint8) {
	if (t.n+1)*8 > len(t.groups)*coreGroupSlots*7 {
		t.grow()
	}
	t.insert(key, core)
	t.n++
}

// grow moves every entry into 1.5× the groups (minCoreGroups at first).
func (t *coreTable) grow() {
	old := t.groups
	t.groups = make([]coreGroup, max(minCoreGroups, len(old)+len(old)/2))
	for g := range old {
		for i := 0; i < int(old[g].n); i++ {
			t.insert(old[g].keys[i], old[g].cores[i])
		}
	}
}

// insert places an absent key in the first free slot of its chain.
func (t *coreTable) insert(key uint32, core uint8) {
	grp, i, _ := t.find(key)
	grp.keys[i], grp.cores[i] = key, core
	grp.n++
}

// size is the number of keys the table holds.
func (t *coreTable) size() int { return t.n }
