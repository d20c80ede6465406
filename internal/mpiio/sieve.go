package mpiio

import (
	"repro/internal/datatype"
	"repro/internal/storage"
)

// Data sieving (Thakur, Gropp & Lusk: "Data Sieving and Collective I/O in
// ROMIO"): independent non-contiguous accesses are served by moving one
// large contiguous window instead of many small pieces. Reads fetch the
// covering extent and pick out the requested bytes; writes (optional,
// because they are a read-modify-write and thus unsafe under concurrent
// overlapping updates, exactly as in ROMIO's atomic-mode caveats) read the
// window, overlay the new bytes, and write it back.

const (
	// defaultSieveBuf mirrors ROMIO's ind_rd_buffer_size default (4 MiB).
	defaultSieveBuf = 4 << 20
	// sieveMinDensity is the fraction of useful bytes in a window below
	// which sieving is not worth the extra transferred volume.
	sieveMinDensity = 0.25
)

func (h Hints) sieveBuf() int64 {
	if h.IndBufferSize > 0 {
		return h.IndBufferSize
	}
	return defaultSieveBuf
}

// sieveWindows greedily packs consecutive segments into windows whose
// covering extent fits the sieve buffer and whose density clears the
// threshold; segments that do not benefit stay alone.
func sieveWindows(segs []datatype.Segment, buf int64) [][]datatype.Segment {
	var out [][]datatype.Segment
	i := 0
	for i < len(segs) {
		j := i + 1
		dataBytes := segs[i].Len
		for j < len(segs) {
			span := segs[j].End() - segs[i].Off
			if span > buf {
				break
			}
			if float64(dataBytes+segs[j].Len)/float64(span) < sieveMinDensity {
				break
			}
			dataBytes += segs[j].Len
			j++
		}
		out = append(out, segs[i:j])
		i = j
	}
	return out
}

// ReadAtSieved reads n view-logical bytes at logOff with data sieving.
func (f *File) ReadAtSieved(logOff, n int64) []byte {
	segs := f.view.Map(logOff, n)
	out := make([]byte, 0, n)
	for _, win := range sieveWindows(segs, f.hints.sieveBuf()) {
		if len(win) == 1 {
			out = append(out, storage.Read(f.r, f.lf, win[0].Off, win[0].Len)...)
			continue
		}
		base := win[0].Off
		span := storage.Read(f.r, f.lf, base, win[len(win)-1].End()-base)
		for _, s := range win {
			out = append(out, span[s.Off-base:s.End()-base]...)
		}
	}
	f.absorbProf()
	return out
}

// WriteAtSieved writes data through the view with write sieving
// (read-modify-write windows). The caller must ensure no concurrent writer
// touches the holes inside this rank's windows — the same atomicity caveat
// ROMIO documents; collective I/O is the safe alternative.
func (f *File) WriteAtSieved(logOff int64, data []byte) {
	segs := f.view.Map(logOff, int64(len(data)))
	var pos int64
	for _, win := range sieveWindows(segs, f.hints.sieveBuf()) {
		if len(win) == 1 {
			storage.Write(f.r, f.lf, win[0].Off, data[pos:pos+win[0].Len])
			pos += win[0].Len
			continue
		}
		base := win[0].Off
		span := storage.Read(f.r, f.lf, base, win[len(win)-1].End()-base)
		for _, s := range win {
			copy(span[s.Off-base:s.End()-base], data[pos:pos+s.Len])
			pos += s.Len
		}
		storage.Write(f.r, f.lf, base, span)
	}
	f.absorbProf()
}
