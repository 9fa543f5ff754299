package dict

import (
	"fmt"

	"xmrobust/internal/sparc"
)

// Layout describes the memory landscape symbolic values resolve against:
// the test partition's data area plus the landmark addresses of the
// machine (another partition's area, the hypervisor image, PROM, I/O).
type Layout struct {
	DataArea  sparc.Region
	OtherArea sparc.Region
	Kernel    sparc.Addr
	ROM       sparc.Addr
	IO        sparc.Addr
}

// Resolved is a dictionary value fixed to its 64-bit ABI image, carrying
// the dictionary metadata the log-analysis phase needs.
type Resolved struct {
	Value
	Bits uint64
}

// Resolve fixes a value against the layout. Literals pass through;
// symbolic tokens become the corresponding address.
func (l Layout) Resolve(v Value) (Resolved, error) {
	if bits, ok := parseLiteral(v.Raw); ok {
		return Resolved{Value: v, Bits: bits}, nil
	}
	var addr sparc.Addr
	switch v.Raw {
	case SymNull:
		addr = 0
	case SymValid:
		addr = l.DataArea.Base
	case SymValidMid:
		addr = l.DataArea.Base + sparc.Addr(l.DataArea.Size/2)
	case SymValidLast:
		addr = l.DataArea.Base + sparc.Addr(l.DataArea.Size-4)
	case SymValidEnd:
		addr = l.DataArea.Base + sparc.Addr(l.DataArea.Size)
	case SymUnaligned:
		addr = l.DataArea.Base + 1
	case SymOtherPart:
		addr = l.OtherArea.Base
	case SymKernel:
		addr = l.Kernel
	case SymROM:
		addr = l.ROM
	case SymIO:
		addr = l.IO
	default:
		return Resolved{}, fmt.Errorf("dict: unknown symbolic value %q", v.Raw)
	}
	return Resolved{Value: v, Bits: uint64(uint32(addr))}, nil
}

// ResolveAll fixes a whole value list.
func (l Layout) ResolveAll(vs []Value) ([]Resolved, error) {
	out := make([]Resolved, 0, len(vs))
	for _, v := range vs {
		r, err := l.Resolve(v)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
