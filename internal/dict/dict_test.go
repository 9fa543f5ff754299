package dict

import (
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"xmrobust/internal/sparc"
)

func TestBuiltinTableIIValueSet(t *testing.T) {
	d := Builtin()
	ts, ok := d.Type("xm_s32_t")
	if !ok {
		t.Fatal("no xm_s32_t set")
	}
	// Paper Table II, in order.
	want := []string{"-2147483648", "-16", "-1", "0", "1", "2", "16", "2147483647"}
	if len(ts.Values) != len(want) {
		t.Fatalf("xm_s32_t has %d values, want %d (Table II)", len(ts.Values), len(want))
	}
	for i, w := range want {
		if ts.Values[i].Raw != w {
			t.Errorf("value %d = %q, want %q", i, ts.Values[i].Raw, w)
		}
	}
	if ts.Values[0].Desc != "MIN_S32" || ts.Values[7].Desc != "MAX_S32" || ts.Values[3].Desc != "ZERO" {
		t.Error("Table II descriptions missing")
	}
	if ts.BasicType != "signed int" {
		t.Errorf("basic type = %q", ts.BasicType)
	}
}

func TestBuiltinFig3ValueSet(t *testing.T) {
	d := Builtin()
	ts, ok := d.Type("xm_u32_t")
	if !ok {
		t.Fatal("no xm_u32_t set")
	}
	// Paper Fig. 3, verbatim: 0, 1, 2, 16, 4294967295.
	want := []string{"0", "1", "2", "16", "4294967295"}
	if len(ts.Values) != len(want) {
		t.Fatalf("xm_u32_t has %d values, want %d (Fig. 3)", len(ts.Values), len(want))
	}
	for i, w := range want {
		if ts.Values[i].Raw != w {
			t.Errorf("value %d = %q, want %q", i, ts.Values[i].Raw, w)
		}
	}
	if ts.BasicType != "unsigned int" {
		t.Errorf("basic type = %q", ts.BasicType)
	}
}

func TestBuiltinMixesValidAndInvalid(t *testing.T) {
	// Paper §IV.B: sets must include values that can be valid, to avoid
	// fault masking (Fig. 7).
	for _, ts := range Builtin().Types() {
		hasInvalid, hasNonInvalid := false, false
		for _, v := range ts.Values {
			if v.Validity == Invalid {
				hasInvalid = true
			} else {
				hasNonInvalid = true
			}
		}
		if !hasInvalid || !hasNonInvalid {
			t.Errorf("%s: needs both invalid and potentially-valid values (masking avoidance)", ts.Name)
		}
	}
}

func TestBuiltinSizes(t *testing.T) {
	d := Builtin()
	for name, want := range map[string]int{
		"xm_u32_t":    5,
		"xm_s32_t":    8,
		"xm_s64_t":    2,
		"void*":       3,
		"xmAddress_t": 14,
		"xmSize_t":    5,
	} {
		ts, ok := d.Type(name)
		if !ok {
			t.Errorf("%s: missing", name)
			continue
		}
		if len(ts.Values) != want {
			t.Errorf("%s: %d values, want %d", name, len(ts.Values), want)
		}
	}
}

func TestTypeAliasesResolve(t *testing.T) {
	d := Builtin()
	// xmTime_t falls back to xm_s64_t; xmId_t to xm_u32_t; xmAddress_t
	// and xmSize_t have their own sets.
	if ts, ok := d.Type("xmTime_t"); !ok || ts.Name != "xm_s64_t" {
		t.Errorf("xmTime_t resolves to %+v %v", ts, ok)
	}
	if ts, ok := d.Type("xmId_t"); !ok || ts.Name != "xm_u32_t" {
		t.Errorf("xmId_t resolves to %+v %v", ts, ok)
	}
	if ts, ok := d.Type("xmAddress_t"); !ok || ts.Name != "xmAddress_t" {
		t.Errorf("xmAddress_t resolves to %+v %v", ts, ok)
	}
	if _, ok := d.Type("nonsense_t"); ok {
		t.Error("nonsense_t resolved")
	}
}

func TestNamedSets(t *testing.T) {
	d := Builtin()
	for name, want := range map[string]int{"plan_ids": 2, "null_only": 1, "irq_types": 4} {
		ns, ok := d.Named(name)
		if !ok {
			t.Errorf("named set %q missing", name)
			continue
		}
		if len(ns.Values) != want {
			t.Errorf("%s: %d values, want %d", name, len(ns.Values), want)
		}
	}
	if _, ok := d.Named("nope"); ok {
		t.Error("named set nope found")
	}
}

func TestXMLRoundTrip(t *testing.T) {
	d := Builtin()
	out, err := d.Emit()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Parse(out)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, out)
	}
	if len(d2.Types()) != len(d.Types()) || len(d2.NamedSets()) != len(d.NamedSets()) {
		t.Fatal("round trip lost sets")
	}
	for i, ts := range d.Types() {
		ts2 := d2.Types()[i]
		if ts2.Name != ts.Name || ts2.BasicType != ts.BasicType || len(ts2.Values) != len(ts.Values) {
			t.Fatalf("type %s changed: %+v vs %+v", ts.Name, ts, ts2)
		}
		for j := range ts.Values {
			if ts.Values[j] != ts2.Values[j] {
				t.Fatalf("%s value %d changed: %+v vs %+v", ts.Name, j, ts.Values[j], ts2.Values[j])
			}
		}
	}
}

func TestEmitMatchesFig3Shape(t *testing.T) {
	out, err := Builtin().Emit()
	if err != nil {
		t.Fatal(err)
	}
	s := string(out)
	for _, want := range []string{
		`<DataType Name="xm_u32_t">`,
		"<BasicType>unsigned int</BasicType>",
		"<TestValues>",
		"<Value>1</Value>",
		"<Value>16</Value>",
		`<Value Desc="MAX_U32" Validity="invalid">4294967295</Value>`,
	} {
		if !strings.Contains(s, want) {
			t.Errorf("emitted XML lacks %q (Fig. 3 shape)", want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, in string }{
		{"garbage", "not xml"},
		{"unnamed type", `<DataTypes><DataType><BasicType>int</BasicType><TestValues><Value>1</Value></TestValues></DataType></DataTypes>`},
		{"empty values", `<DataTypes><DataType Name="t"><BasicType>int</BasicType><TestValues></TestValues></DataType></DataTypes>`},
		{"empty value", `<DataTypes><DataType Name="t"><BasicType>int</BasicType><TestValues><Value> </Value></TestValues></DataType></DataTypes>`},
		{"bad validity", `<DataTypes><DataType Name="t"><BasicType>int</BasicType><TestValues><Value Validity="maybe">1</Value></TestValues></DataType></DataTypes>`},
		{"unnamed set", `<DataTypes><ValueSet><Value>1</Value></ValueSet></DataTypes>`},
	}
	for _, c := range cases {
		if _, err := Parse([]byte(c.in)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func testLayout() Layout {
	return Layout{
		DataArea:  sparc.Region{Base: 0x40500000, Size: 0x10000},
		OtherArea: sparc.Region{Base: 0x40100000, Size: 0x10000},
		Kernel:    0x40000000,
		ROM:       0x100,
		IO:        0x80000000,
	}
}

func TestResolveSymbols(t *testing.T) {
	l := testLayout()
	cases := map[string]uint64{
		SymNull:      0,
		SymValid:     0x40500000,
		SymValidMid:  0x40508000,
		SymValidLast: 0x4050FFFC,
		SymValidEnd:  0x40510000,
		SymUnaligned: 0x40500001,
		SymOtherPart: 0x40100000,
		SymKernel:    0x40000000,
		SymROM:       0x100,
		SymIO:        0x80000000,
	}
	for sym, want := range cases {
		r, err := l.Resolve(Value{Raw: sym})
		if err != nil {
			t.Errorf("%s: %v", sym, err)
			continue
		}
		if r.Bits != want {
			t.Errorf("%s = %#x, want %#x", sym, r.Bits, want)
		}
	}
	if _, err := l.Resolve(Value{Raw: "WHAT"}); err == nil {
		t.Error("unknown symbol resolved")
	}
}

func TestResolveLiterals(t *testing.T) {
	l := testLayout()
	cases := map[string]uint64{
		"0":                    0,
		"1":                    1,
		"4294967295":           0xFFFFFFFF,
		"-1":                   0xFFFFFFFFFFFFFFFF,
		"-2147483648":          0xFFFFFFFF80000000,
		"-9223372036854775808": 0x8000000000000000,
		"0x40":                 0x40,
	}
	for raw, want := range cases {
		r, err := l.Resolve(Value{Raw: raw})
		if err != nil {
			t.Errorf("%s: %v", raw, err)
			continue
		}
		if r.Bits != want {
			t.Errorf("%s = %#x, want %#x", raw, r.Bits, want)
		}
	}
}

func TestResolveAllBuiltin(t *testing.T) {
	l := testLayout()
	for _, ts := range Builtin().Types() {
		if _, err := l.ResolveAll(ts.Values); err != nil {
			t.Errorf("%s: %v", ts.Name, err)
		}
	}
	for _, ns := range Builtin().NamedSets() {
		if _, err := l.ResolveAll(ns.Values); err != nil {
			t.Errorf("%s: %v", ns.Name, err)
		}
	}
}

func TestValueString(t *testing.T) {
	if s := (Value{Raw: "-16"}).String(); s != "-16" {
		t.Errorf("String = %q", s)
	}
	if s := (Value{Raw: "0", Desc: "ZERO"}).String(); s != "0(ZERO)" {
		t.Errorf("String = %q", s)
	}
}

func TestIsSymbol(t *testing.T) {
	if (Value{Raw: "42"}).IsSymbol() {
		t.Error("42 is a symbol")
	}
	if !(Value{Raw: SymValid}).IsSymbol() {
		t.Error("VALID is not a symbol")
	}
}

// strconvLiteral is the literal parser before the first-byte shortcut:
// strconv alone decides. parseLiteral must agree with it on every input.
func strconvLiteral(s string) (uint64, bool) {
	t := strings.TrimSpace(s)
	if strings.HasPrefix(t, "-") {
		v, err := strconv.ParseInt(t, 0, 64)
		return uint64(v), err == nil
	}
	v, err := strconv.ParseUint(t, 0, 64)
	return v, err == nil
}

// TestParseLiteralMatchesStrconv: skipping strconv for input that cannot
// be a literal changes no resolution — neither of a built-in dictionary
// value nor of the prefix, sign and separator edge cases.
func TestParseLiteralMatchesStrconv(t *testing.T) {
	inputs := []string{
		"", " ", "-", "--1", "+1", "0x", "-0x", "0b1", "0o17", "017", "1_0", "_1",
		"-0x8000000000000000", "-0x8000000000000001", "0xFFFFFFFFFFFFFFFF",
		"18446744073709551616", " 42 ", "- 1", "x1", "NULL", "VALID_MID",
	}
	d := Builtin()
	for _, ts := range d.Types() {
		for _, v := range ts.Values {
			inputs = append(inputs, v.Raw)
		}
	}
	for _, ns := range d.NamedSets() {
		for _, v := range ns.Values {
			inputs = append(inputs, v.Raw)
		}
	}
	l := testLayout()
	for _, in := range inputs {
		bits, ok := parseLiteral(in)
		wantBits, wantOK := strconvLiteral(in)
		if ok != wantOK || (ok && bits != wantBits) {
			t.Errorf("parseLiteral(%q) = %#x, %v; strconv says %#x, %v", in, bits, ok, wantBits, wantOK)
		}
		if sym := (Value{Raw: in}).IsSymbol(); sym == wantOK {
			t.Errorf("IsSymbol(%q) = %v", in, sym)
		}
		r, err := l.Resolve(Value{Raw: in})
		if wantOK && (err != nil || r.Bits != wantBits) {
			t.Errorf("Resolve(%q) = %#x, %v; want %#x", in, r.Bits, err, wantBits)
		}
	}
}

// TestIsSymbolAllocationFree: a symbolic token is classified without
// strconv building an error for it.
func TestIsSymbolAllocationFree(t *testing.T) {
	v := Value{Raw: SymNull}
	if n := testing.AllocsPerRun(100, func() { v.IsSymbol() }); n != 0 {
		t.Errorf("IsSymbol(%q) allocates %v times per call, want 0", v.Raw, n)
	}
}

// Property: literal values always survive Resolve with their two's
// complement image.
func TestPropertyLiteralResolution(t *testing.T) {
	l := testLayout()
	f := func(v int64) bool {
		raw := Value{Raw: itoa(v)}
		r, err := l.Resolve(raw)
		return err == nil && r.Bits == uint64(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func itoa(v int64) string {
	// strconv is fine in tests; keep it explicit for negative handling.
	return fmtInt(v)
}

func fmtInt(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	u := uint64(v)
	if neg {
		u = uint64(-v) // MinInt64 wraps to itself, handled below
	}
	if v == -9223372036854775808 {
		return "-9223372036854775808"
	}
	var b [20]byte
	i := len(b)
	for u > 0 {
		i--
		b[i] = byte('0' + u%10)
		u /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}
