// Package hdf5lite is a minimal self-describing scientific container in the
// spirit of HDF5, written through collective MPI-IO. Flash I/O writes its
// checkpoints through HDF5 over MPI-IO; what matters for the paper's
// experiments is the request-size and segment-count profile of that path,
// which this package preserves: a small header written by rank 0 plus a
// sequence of large datasets written collectively by all ranks.
//
// Layout:
//
//	superblock:  8-byte magic "HLITE\x00\x01\x00", 4-byte dataset count,
//	             4-byte attribute count
//	per dataset: 64-byte name, 8-byte total size, 8-byte base offset
//	per attr:    64-byte name, 4-byte length, value bytes (attrs sorted)
//	data:        each dataset 4 KiB-aligned
package hdf5lite

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/datatype"
)

// Magic identifies an hdf5lite file.
var Magic = [8]byte{'H', 'L', 'I', 'T', 'E', 0, 1, 0}

const (
	nameLen   = 64
	dsRecLen  = nameLen + 16
	dataAlign = 4096
)

// CollectiveFile is the slice of the MPI-IO interface hdf5lite needs; both
// *core.File (ParColl) and *mpiio.File (plain two-phase) satisfy it.
type CollectiveFile interface {
	SetView(datatype.View)
	WriteAtAll(logOff int64, data []byte)
	ReadAtAll(logOff, n int64) []byte
}

// Dataset is a named contiguous region of the container.
type Dataset struct {
	Name  string
	Total int64
	Base  int64
}

// File is an hdf5lite container bound to a collective MPI-IO file.
type File struct {
	cf       CollectiveFile
	isWriter bool // rank 0 writes the header
	datasets []Dataset
	byName   map[string]*Dataset
	attrs    map[string]string
}

// Spec declares a dataset before creation.
type Spec struct {
	Name  string
	Total int64
}

// HeaderBytes returns the header size for n datasets and no attributes.
func HeaderBytes(n int) int64 { return HeaderBytesAttrs(n, nil) }

// HeaderBytesAttrs returns the header size for n datasets plus attributes.
func HeaderBytesAttrs(n int, attrs map[string]string) int64 {
	sz := int64(16 + n*dsRecLen)
	for _, v := range attrs {
		sz += nameLen + 4 + int64(len(v))
	}
	return align(sz)
}

func align(n int64) int64 {
	return (n + dataAlign - 1) / dataAlign * dataAlign
}

// Create lays out the container and collectively writes the header (rank 0
// supplies the bytes; every rank must call Create). isWriter must be true
// on exactly one rank.
func Create(cf CollectiveFile, isWriter bool, specs []Spec) *File {
	return CreateWithAttrs(cf, isWriter, specs, nil)
}

// CreateWithAttrs is Create with string attributes stored in the header
// (simulation metadata, as Flash records alongside its checkpoints). All
// ranks must pass identical attributes.
func CreateWithAttrs(cf CollectiveFile, isWriter bool, specs []Spec, attrs map[string]string) *File {
	f := &File{cf: cf, isWriter: isWriter, byName: make(map[string]*Dataset), attrs: attrs}
	for k := range attrs {
		if len(k) >= nameLen {
			panic(fmt.Sprintf("hdf5lite: attribute name %q too long", k))
		}
	}
	off := HeaderBytesAttrs(len(specs), attrs)
	for _, s := range specs {
		if len(s.Name) >= nameLen {
			panic(fmt.Sprintf("hdf5lite: dataset name %q too long", s.Name))
		}
		f.datasets = append(f.datasets, Dataset{Name: s.Name, Total: s.Total, Base: off})
		off = align(off + s.Total)
	}
	for i := range f.datasets {
		f.byName[f.datasets[i].Name] = &f.datasets[i]
	}
	// Collective header write: rank 0 contributes the header bytes,
	// everyone else participates with nothing.
	var hdr []byte
	if isWriter {
		hdr = f.encodeHeader()
	}
	cf.SetView(datatype.View{Disp: 0, Filetype: datatype.Contig(int64(len(hdr)))})
	cf.WriteAtAll(0, hdr)
	return f
}

func (f *File) encodeHeader() []byte {
	out := make([]byte, HeaderBytesAttrs(len(f.datasets), f.attrs))
	copy(out, Magic[:])
	binary.LittleEndian.PutUint32(out[8:], uint32(len(f.datasets)))
	binary.LittleEndian.PutUint32(out[12:], uint32(len(f.attrs)))
	p := 16
	for _, d := range f.datasets {
		copy(out[p:p+nameLen], d.Name)
		binary.LittleEndian.PutUint64(out[p+nameLen:], uint64(d.Total))
		binary.LittleEndian.PutUint64(out[p+nameLen+8:], uint64(d.Base))
		p += dsRecLen
	}
	names := make([]string, 0, len(f.attrs))
	for k := range f.attrs {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		copy(out[p:p+nameLen], k)
		v := f.attrs[k]
		binary.LittleEndian.PutUint32(out[p+nameLen:], uint32(len(v)))
		copy(out[p+nameLen+4:], v)
		p += nameLen + 4 + len(v)
	}
	return out
}

// ParseHeader decodes a container header from raw file bytes, returning
// the datasets and attributes.
func ParseHeader(raw []byte) ([]Dataset, map[string]string, error) {
	if len(raw) < 16 || string(raw[:8]) != string(Magic[:]) {
		return nil, nil, fmt.Errorf("hdf5lite: bad magic")
	}
	n := int(binary.LittleEndian.Uint32(raw[8:]))
	na := int(binary.LittleEndian.Uint32(raw[12:]))
	if len(raw) < 16+n*dsRecLen {
		return nil, nil, fmt.Errorf("hdf5lite: truncated header")
	}
	out := make([]Dataset, n)
	p := 16
	cstr := func(b []byte) string {
		end := 0
		for end < len(b) && b[end] != 0 {
			end++
		}
		return string(b[:end])
	}
	for i := range out {
		out[i] = Dataset{
			Name:  cstr(raw[p : p+nameLen]),
			Total: int64(binary.LittleEndian.Uint64(raw[p+nameLen:])),
			Base:  int64(binary.LittleEndian.Uint64(raw[p+nameLen+8:])),
		}
		p += dsRecLen
	}
	attrs := make(map[string]string, na)
	for i := 0; i < na; i++ {
		if p+nameLen+4 > len(raw) {
			return nil, nil, fmt.Errorf("hdf5lite: truncated attributes")
		}
		k := cstr(raw[p : p+nameLen])
		vlen := int(binary.LittleEndian.Uint32(raw[p+nameLen:]))
		p += nameLen + 4
		if p+vlen > len(raw) {
			return nil, nil, fmt.Errorf("hdf5lite: truncated attribute value")
		}
		attrs[k] = string(raw[p : p+vlen])
		p += vlen
	}
	return out, attrs, nil
}

// Attr returns an attribute value ("" when absent).
func (f *File) Attr(name string) string { return f.attrs[name] }

// Dataset returns the named dataset's layout.
func (f *File) Dataset(name string) Dataset {
	d, ok := f.byName[name]
	if !ok {
		panic(fmt.Sprintf("hdf5lite: unknown dataset %q", name))
	}
	return *d
}

// WriteAll collectively writes this rank's portion of the dataset at the
// given offset within it. Every rank must call it (possibly with no data).
func (f *File) WriteAll(name string, myOff int64, data []byte) {
	d := f.Dataset(name)
	if myOff+int64(len(data)) > d.Total {
		panic(fmt.Sprintf("hdf5lite: write beyond dataset %q", name))
	}
	f.cf.SetView(datatype.View{Disp: d.Base + myOff, Filetype: datatype.Contig(int64(len(data)))})
	f.cf.WriteAtAll(0, data)
}

// ReadAll collectively reads n bytes of this rank's portion at myOff.
func (f *File) ReadAll(name string, myOff, n int64) []byte {
	d := f.Dataset(name)
	f.cf.SetView(datatype.View{Disp: d.Base + myOff, Filetype: datatype.Contig(n)})
	return f.cf.ReadAtAll(0, n)
}
