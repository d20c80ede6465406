package storage

import "fmt"

// Ledger is the end-to-end integrity audit: a seeded checksum record of
// every extent a backend stored, written at issue time by the layer that
// owns the bytes (the target farm's Object.Store under lustre and pvfs —
// the bb tier forwards the ledger to its under-backend, which performs its
// actual stores).
// Recovery tests verify read-back against it, so "byte-exact after failure"
// is asserted by construction rather than per-test comparison code.
//
// Two records are kept per file. The digest log is the audit trail: one
// seeded FNV-1a digest per stored extent, in issue order — consumed by
// tests that want to assert what was acknowledged when. The shadow store
// is the authoritative expected image: the bytes as acknowledged, latest
// write wins, exactly the overwrite semantics of the real store. Verify
// walks the acknowledged extent set comparing backend contents against the
// shadow.
//
// A Punch (staging loss) deliberately does NOT touch the ledger: the
// acknowledged contents remain the contract, and only a re-dump that
// restores them lets Verify pass again.
//
// Everything here is free in virtual time and draw-free, so an audited run
// is bit-identical to a bare one.
type Ledger struct {
	seed  int64
	files map[string]*ledgerFile
	lost  int // staging-loss events noted (diagnostics)
}

type ledgerFile struct {
	shadow *ByteStore
	acked  []Extent // canonical acknowledged byte set
	dirty  bool     // acked needs a re-coalesce
	raw    []Extent // stores since the last coalesce
	log    []ExtentDigest
}

// ExtentDigest is one issue-time store record.
type ExtentDigest struct {
	Off, Len int64
	Sum      uint64 // seeded FNV-1a digest of the stored bytes
}

// NewLedger returns an empty ledger whose digests are salted with seed, so
// two runs under one seed produce identical digest logs and runs under
// different seeds cannot accidentally collide their way to a pass.
func NewLedger(seed int64) *Ledger {
	return &Ledger{seed: seed, files: make(map[string]*ledgerFile)}
}

func (l *Ledger) file(name string) *ledgerFile {
	f := l.files[name]
	if f == nil {
		f = &ledgerFile{shadow: NewByteStore()}
		l.files[name] = f
	}
	return f
}

// Record notes one store of data at off, at issue time: the shadow image
// absorbs the bytes and the digest log appends the extent's seeded sum.
func (l *Ledger) Record(name string, off int64, data []byte) {
	if len(data) == 0 {
		return
	}
	f := l.file(name)
	f.shadow.Store(off, data)
	f.raw = append(f.raw, Extent{Off: off, Len: int64(len(data))})
	f.dirty = true
	f.log = append(f.log, ExtentDigest{Off: off, Len: int64(len(data)), Sum: digest(l.seed, off, data)})
}

// NoteLost counts a staging-loss event (diagnostics; the expected contents
// do not change — re-dump must restore them).
func (l *Ledger) NoteLost(name string, lost []Extent) { l.lost++ }

// LostEvents returns how many staging losses were noted.
func (l *Ledger) LostEvents() int { return l.lost }

// Acked returns the file's canonical acknowledged byte set.
func (l *Ledger) Acked(name string) []Extent {
	f := l.files[name]
	if f == nil {
		return nil
	}
	if f.dirty {
		f.acked = Coalesce(append(f.acked, f.raw...))
		f.raw = f.raw[:0]
		f.dirty = false
	}
	return f.acked
}

// Digests returns the file's issue-order digest log.
func (l *Ledger) Digests(name string) []ExtentDigest {
	f := l.files[name]
	if f == nil {
		return nil
	}
	return f.log
}

// Verify compares the backend's current contents of every acknowledged
// extent of the file — read through peek, which must be a zero-time
// accessor like File.Peek — against the shadow image, returning a
// descriptive error on the first mismatching byte. No time cost, no draws.
func (l *Ledger) Verify(name string, peek func(off, n int64) []byte) error {
	for _, e := range l.Acked(name) {
		want := l.files[name].shadow.Load(e.Off, e.Len)
		got := peek(e.Off, e.Len)
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("ledger: %q byte %d = %#x, want %#x (acknowledged at issue time)",
					name, e.Off+int64(i), got[i], want[i])
			}
		}
	}
	return nil
}

// VerifyFile is Verify against an open handle's Peek.
func (l *Ledger) VerifyFile(name string, f File) error { return l.Verify(name, f.Peek) }

// digest is FNV-1a over the extent's offset and bytes, salted with the
// ledger seed.
func digest(seed, off int64, data []byte) uint64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= fnvPrime
	}
	for i := 0; i < 8; i++ {
		mix(byte(uint64(seed) >> (8 * i)))
		mix(byte(uint64(off) >> (8 * i)))
	}
	for _, b := range data {
		mix(b)
	}
	return h
}
