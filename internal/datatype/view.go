package datatype

// File-view arithmetic. An MPI-IO file view is (disp, filetype): the
// filetype tiles the file starting at byte disp, and the process sees only
// the filetype's data bytes, concatenated, as its logical file. Map
// translates a logical byte range into physical file segments.

// View is a file view: Filetype tiled from byte Disp onward.
type View struct {
	Disp     int64
	Filetype Type
}

// ContigView returns the default "whole file" view (byte-stream at disp 0).
type contigAll struct{}

func (contigAll) Size() int64         { return 1 }
func (contigAll) Extent() int64       { return 1 }
func (contigAll) Segments() []Segment { return []Segment{{0, 1}} }

// WholeFile is a view exposing the entire file as a byte stream.
func WholeFile() View { return View{Disp: 0, Filetype: contigAll{}} }

// IsContiguous reports whether the view is dense (no holes), in which case
// logical offset v maps to physical offset Disp+v.
func (v View) IsContiguous() bool {
	ft := v.Filetype
	segs := ft.Segments()
	return len(segs) == 1 && segs[0].Off == 0 && segs[0].Len == ft.Size() && ft.Size() == ft.Extent()
}

// Map translates the logical range [logOff, logOff+length) of the view into
// absolute physical file segments (sorted, coalesced).
func (v View) Map(logOff, length int64) []Segment {
	if length <= 0 {
		return nil
	}
	ft := v.Filetype
	size := ft.Size()
	if size <= 0 {
		panic("datatype: view filetype has zero size")
	}
	if v.IsContiguous() {
		return []Segment{{v.Disp + logOff, length}}
	}
	extent := ft.Extent()
	segs := ft.Segments()
	// Prefix sums of data bytes per segment, to find the starting segment.
	tile := logOff / size
	rem := logOff % size
	var out []Segment
	for length > 0 {
		base := v.Disp + tile*extent
		for _, s := range segs {
			if rem >= s.Len {
				rem -= s.Len
				continue
			}
			take := s.Len - rem
			if take > length {
				take = length
			}
			out = append(out, Segment{base + s.Off + rem, take})
			length -= take
			rem = 0
			if length == 0 {
				break
			}
		}
		tile++
	}
	return coalesce(out)
}
