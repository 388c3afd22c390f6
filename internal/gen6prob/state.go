// Generation-state serialization: the blob that rides in adaptive
// checkpoint artifacts so an interrupted run resumes mid-adaptation
// with the exact trie, sampler counter, and emitted set it stopped
// with. The trie serializes as a preorder walk with per-node child
// masks; everything else the source needs (cluster prior, config
// weights) is rebuilt deterministically from the construction
// parameters, which the resuming caller supplies.
package gen6prob

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"sort"
)

// stateMagic versions the serialized generation state.
const stateMagic = "G6PB01"

// AppendState implements core.TargetSource: it appends the complete
// generation state — sampler counter, emitted-target set, weighted
// trie — to buf and returns the extended slice.
func (s *Source) AppendState(buf []byte) []byte {
	buf = append(buf, stateMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, s.ctr)
	addrs := make([]netip.Addr, 0, len(s.emitted))
	for a := range s.emitted {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i].Less(addrs[j]) })
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(addrs)))
	for _, a := range addrs {
		a16 := a.As16()
		buf = append(buf, a16[:]...)
	}
	return appendNode(buf, s.root)
}

func appendNode(buf []byte, n *node) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, n.weight)
	var flags byte
	if n.dead {
		flags |= 1
	}
	if n.spent {
		flags |= 2
	}
	buf = append(buf, flags)
	var mask uint16
	for v := 0; v < 16; v++ {
		if n.children[v] != nil {
			mask |= 1 << v
		}
	}
	buf = binary.LittleEndian.AppendUint16(buf, mask)
	for v := 0; v < 16; v++ {
		if n.children[v] != nil {
			buf = appendNode(buf, n.children[v])
		}
	}
	return buf
}

// RestoreState implements core.TargetSource: it replaces the source's
// trie, sampler counter, and emitted set with the serialized state.
// The source must have been constructed with the same seeds and
// configuration as the one that serialized it.
func (s *Source) RestoreState(data []byte) error {
	r := stateReader{buf: data}
	magic, err := r.take(len(stateMagic))
	if err != nil || string(magic) != stateMagic {
		return fmt.Errorf("gen6prob: bad state magic")
	}
	ctr, err := r.u64()
	if err != nil {
		return err
	}
	nEmit, err := r.u32()
	if err != nil {
		return err
	}
	if uint64(nEmit)*16 > uint64(len(data)) {
		return fmt.Errorf("gen6prob: implausible emitted count %d", nEmit)
	}
	emitted := make(map[netip.Addr]struct{}, nEmit)
	var prev netip.Addr
	for i := uint32(0); i < nEmit; i++ {
		raw, err := r.take(16)
		if err != nil {
			return err
		}
		a := netip.AddrFrom16([16]byte(raw))
		// AppendState writes the set strictly ascending; anything else
		// is not a blob it wrote.
		if i > 0 && !prev.Less(a) {
			return fmt.Errorf("gen6prob: emitted set not strictly ascending at %v", a)
		}
		emitted[a] = struct{}{}
		prev = a
	}
	root, err := readNode(&r, 0)
	if err != nil {
		return err
	}
	if r.off != len(data) {
		return fmt.Errorf("gen6prob: %d trailing state bytes", len(data)-r.off)
	}
	s.ctr = ctr
	s.emitted = emitted
	s.root = root
	return nil
}

func readNode(r *stateReader, depth int) (*node, error) {
	if depth > nybbleDepth {
		return nil, fmt.Errorf("gen6prob: trie deeper than %d levels", nybbleDepth)
	}
	n := &node{}
	var err error
	if n.weight, err = r.u64(); err != nil {
		return nil, err
	}
	flags, err := r.u8()
	if err != nil {
		return nil, err
	}
	if flags&^3 != 0 {
		return nil, fmt.Errorf("gen6prob: unknown node flags %#x", flags)
	}
	n.dead = flags&1 != 0
	n.spent = flags&2 != 0
	mask, err := r.u16()
	if err != nil {
		return nil, err
	}
	for v := 0; v < 16; v++ {
		if mask&(1<<v) == 0 {
			continue
		}
		if n.children[v], err = readNode(r, depth+1); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// stateReader is a bounds-checked cursor over an untrusted state blob.
type stateReader struct {
	buf []byte
	off int
}

func (r *stateReader) take(n int) ([]byte, error) {
	if len(r.buf)-r.off < n {
		return nil, fmt.Errorf("gen6prob: truncated state at offset %d", r.off)
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *stateReader) u8() (byte, error) {
	b, err := r.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *stateReader) u16() (uint16, error) {
	b, err := r.take(2)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b), nil
}

func (r *stateReader) u32() (uint32, error) {
	b, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *stateReader) u64() (uint64, error) {
	b, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}
