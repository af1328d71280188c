package sos

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Snapshot persistence: schemas and object slabs are written; indices are
// rebuilt from their specs on restore (SOS stores its trees on disk, but
// rebuilding keeps the format simple and is fast at monitoring scales).

const snapMagic = "SOS-GO-SNAP1"

// snapMagic2 is the snapshot format carrying per-object origin ids. It is
// only written when the container actually has stamped origins, so
// unreplicated snapshots stay byte-identical to the original format.
const snapMagic2 = "SOS-GO-SNAP2"

// hasOrigins reports whether any live object carries a non-zero origin.
func (c *Container) hasOrigins() bool {
	for schema, origins := range c.origins {
		dead := c.dead[schema]
		for pos, o := range origins {
			if o != 0 && !dead[pos] {
				return true
			}
		}
	}
	return false
}

// Snapshot writes the container to w (gzip-compressed binary).
func (c *Container) Snapshot(w io.Writer) error {
	withOrigins := c.hasOrigins()
	magic := snapMagic
	if withOrigins {
		magic = snapMagic2
	}
	if _, err := io.WriteString(w, magic); err != nil {
		return err
	}
	zw := gzip.NewWriter(w)
	bw := bufio.NewWriter(zw)
	e := &snapEnc{w: bw}
	e.str(c.Name)
	e.u64(c.nextOID)
	names := c.Schemas()
	e.u64(uint64(len(names)))
	for _, name := range names {
		sch := c.schemas[name]
		e.str(sch.Name)
		e.u64(uint64(len(sch.Attrs)))
		for _, a := range sch.Attrs {
			e.str(a.Name)
			e.u64(uint64(a.Type))
		}
		// Only live objects are persisted (tombstones are dropped, so a
		// snapshot/restore cycle doubles as compaction).
		slab := c.slabs[name]
		dead := c.dead[name]
		e.u64(uint64(len(slab) - len(dead)))
		for pos, obj := range slab {
			if dead[pos] {
				continue
			}
			for i, v := range obj {
				e.value(sch.Attrs[i].Type, v)
			}
			if withOrigins {
				e.u64(c.originAt(name, pos))
			}
		}
	}
	idxNames := c.Indices()
	e.u64(uint64(len(idxNames)))
	for _, name := range idxNames {
		spec := c.indices[name].spec
		e.str(spec.Name)
		e.str(spec.Schema)
		e.u64(uint64(len(spec.Attrs)))
		for _, a := range spec.Attrs {
			e.str(a)
		}
	}
	if e.err != nil {
		return e.err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return zw.Close()
}

// snapPrealloc caps how many objects Restore reserves room for up front.
const snapPrealloc = 1 << 16

// Restore reads a container snapshot written by Snapshot (either format).
func Restore(r io.Reader) (*Container, error) {
	magic := make([]byte, len(snapMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, err
	}
	withOrigins := string(magic) == snapMagic2
	if string(magic) != snapMagic && !withOrigins {
		return nil, errors.New("sos: not a container snapshot")
	}
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, err
	}
	defer zr.Close()
	d := &snapDec{r: bufio.NewReader(zr)}
	c := NewContainer(d.str())
	c.nextOID = d.u64()
	nSchemas := d.u64()
	if d.err != nil {
		return nil, d.err
	}
	if nSchemas > 1<<20 {
		return nil, fmt.Errorf("sos: implausible schema count %d", nSchemas)
	}
	for i := uint64(0); i < nSchemas; i++ {
		name := d.str()
		nAttrs := d.u64()
		if d.err != nil {
			return nil, d.err
		}
		if nAttrs > 1<<16 {
			return nil, fmt.Errorf("sos: implausible attr count %d", nAttrs)
		}
		attrs := make([]AttrSpec, nAttrs)
		for j := range attrs {
			attrs[j].Name = d.str()
			attrs[j].Type = Type(d.u64())
		}
		sch, err := NewSchema(name, attrs)
		if err != nil {
			return nil, err
		}
		if err := c.AddSchema(sch); err != nil {
			return nil, err
		}
		nObjs := d.u64()
		if d.err != nil {
			return nil, d.err
		}
		if nObjs > 1<<32 {
			return nil, fmt.Errorf("sos: implausible object count %d", nObjs)
		}
		// The count is only a hint until the objects are read: a hostile
		// header must not reserve gigabytes, so the slab grows as they come.
		hint := min(nObjs, snapPrealloc)
		slab := make([]Object, 0, hint)
		var origins []uint64
		if withOrigins {
			origins = make([]uint64, 0, hint)
		}
		for j := uint64(0); j < nObjs; j++ {
			obj := make(Object, len(attrs))
			for k := range attrs {
				obj[k] = d.value(attrs[k].Type)
			}
			slab = append(slab, obj)
			if withOrigins {
				origins = append(origins, d.u64())
			}
			if d.err != nil {
				return nil, d.err
			}
		}
		c.slabs[name] = slab
		if withOrigins {
			c.origins[name] = origins
		}
	}
	nIdx := d.u64()
	if d.err != nil {
		return nil, d.err
	}
	if nIdx > 1<<16 {
		return nil, fmt.Errorf("sos: implausible index count %d", nIdx)
	}
	for i := uint64(0); i < nIdx; i++ {
		spec := IndexSpec{Name: d.str(), Schema: d.str()}
		nAttrs := d.u64()
		if d.err != nil {
			return nil, d.err
		}
		for j := uint64(0); j < nAttrs; j++ {
			spec.Attrs = append(spec.Attrs, d.str())
		}
		if _, err := c.AddIndex(spec); err != nil {
			return nil, err
		}
	}
	return c, d.err
}

type snapEnc struct {
	w   *bufio.Writer
	err error
}

func (e *snapEnc) u64(v uint64) {
	if e.err != nil {
		return
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	_, e.err = e.w.Write(b[:])
}

func (e *snapEnc) str(s string) {
	e.u64(uint64(len(s)))
	if e.err == nil {
		_, e.err = e.w.WriteString(s)
	}
}

func (e *snapEnc) value(t Type, v any) {
	switch t {
	case TypeInt64:
		e.u64(uint64(v.(int64)))
	case TypeUint64:
		e.u64(v.(uint64))
	case TypeFloat64:
		e.u64(math.Float64bits(v.(float64)))
	case TypeString:
		e.str(v.(string))
	}
}

type snapDec struct {
	r   *bufio.Reader
	err error
}

func (d *snapDec) u64() uint64 {
	if d.err != nil {
		return 0
	}
	var b [8]byte
	if _, err := io.ReadFull(d.r, b[:]); err != nil {
		d.err = err
		return 0
	}
	return binary.LittleEndian.Uint64(b[:])
}

func (d *snapDec) str() string {
	n := d.u64()
	if d.err != nil {
		return ""
	}
	if n > 1<<24 {
		d.err = fmt.Errorf("sos: implausible string length %d", n)
		return ""
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(d.r, b); err != nil {
		d.err = err
		return ""
	}
	return string(b)
}

func (d *snapDec) value(t Type) any {
	switch t {
	case TypeInt64:
		return int64(d.u64())
	case TypeUint64:
		return d.u64()
	case TypeFloat64:
		return math.Float64frombits(d.u64())
	case TypeString:
		return d.str()
	}
	d.err = fmt.Errorf("sos: unknown type %d", t)
	return nil
}
