package pagestore

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

func TestIOTagClamp(t *testing.T) {
	if tag := NewIOTag(CompTIABTree, -3); tag.Level != 0 {
		t.Errorf("negative level clamped to %d, want 0", tag.Level)
	}
	if tag := NewIOTag(CompTIABTree, MaxIOLevels+5); tag.Level != MaxIOLevels-1 {
		t.Errorf("oversized level clamped to %d, want %d", tag.Level, MaxIOLevels-1)
	}
	if tag := NewIOTag(Component(200), 1); tag.Comp != CompUnknown {
		t.Errorf("invalid component clamped to %v, want unknown", tag.Comp)
	}
	// A hand-built out-of-range tag must still land inside the array.
	var b IOBreakdown
	b.AddRead(IOTag{Comp: Component(250), Level: 250}, true)
	if got := b[CompUnknown][MaxIOLevels-1].Hits; got != 1 {
		t.Errorf("raw out-of-range tag landed wrong: %+v", b)
	}
}

func TestComponentString(t *testing.T) {
	want := map[Component]string{
		CompUnknown:       "unknown",
		CompRTreeInternal: "rtree-internal",
		CompRTreeLeaf:     "rtree-leaf",
		CompTIABTree:      "tia-btree",
		CompTIAMVBT:       "tia-mvbt",
		Component(99):     "unknown",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("Component(%d).String() = %q, want %q", c, c.String(), s)
		}
	}
}

// TestLedgerTaggedBuffer drives one buffer with tagged and untagged unowned
// traffic, forcing evictions and dirty write-backs, and checks every
// conservation identity: ledger total == buffer stats, with each event in
// the cell of its tag (evictions and their write-backs under the tag of the
// access that forced them, untagged traffic under CompUnknown).
func TestLedgerTaggedBuffer(t *testing.T) {
	f := NewMemFile(64)
	var ledger Ledger
	b := NewBufferWithLedger(f, 2, &ledger)

	var ids []PageID
	for i := 0; i < 4; i++ {
		id, err := b.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	btag := NewIOTag(CompTIABTree, 0)
	mtag := NewIOTag(CompTIAMVBT, 1)
	data := make([]byte, 64)

	// Two tagged dirty pages fill the buffer.
	if err := b.PutTag(ids[0], data, btag); err != nil {
		t.Fatal(err)
	}
	if err := b.PutTag(ids[1], data, mtag); err != nil {
		t.Fatal(err)
	}
	// Loading a third page under btag evicts ids[0] (dirty): the eviction
	// and its physical write-back must be attributed to btag.
	if _, err := b.GetTag(ids[2], btag); err != nil {
		t.Fatal(err)
	}
	// A hit on the mvbt page, then untagged traffic: a hit, and a miss that
	// evicts ids[2] (clean).
	if _, err := b.GetTag(ids[1], mtag); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Get(ids[2]); err != nil {
		t.Fatal(err)
	}
	if _, err := b.GetTag(ids[1], mtag); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Get(ids[3]); err != nil {
		t.Fatal(err)
	}

	if got, want := ledger.Stats(), b.Stats(); got != want {
		t.Fatalf("ledger total %+v != buffer stats %+v", got, want)
	}
	bd, want := ledger.Breakdown(), IOBreakdown{}
	want[CompTIABTree][0] = IOCell{Misses: 1, LogicalWrites: 1, PhysicalWrites: 1, Evictions: 1}
	want[CompTIAMVBT][1] = IOCell{Hits: 2, LogicalWrites: 1}
	want[CompUnknown][0] = IOCell{Hits: 1, Misses: 1, Evictions: 1}
	if bd != want {
		t.Errorf("ledger cells:\n got %+v\nwant %+v", nonZero(&bd), nonZero(&want))
	}
	if got := ledger.DirtyEvictions(); got != 1 {
		t.Errorf("%d dirty evictions, want 1 of the 2", got)
	}
}

// nonZero lists a breakdown's non-zero cells for failure messages.
func nonZero(b *IOBreakdown) map[string]IOCell {
	m := map[string]IOCell{}
	b.Each(func(c Component, level int, cell IOCell) { m[fmt.Sprintf("%s/%d", c, level)] = cell })
	return m
}

// TestLedgerSharedBuffers checks the aggregate identity when one ledger is
// shared by several buffers, a pass-through one among them: the sum of the
// buffers' own Stats equals the ledger total.
func TestLedgerSharedBuffers(t *testing.T) {
	f := NewMemFile(64)
	var ledger Ledger
	b1 := NewBufferWithLedger(f, 1, &ledger)
	b2 := NewBufferWithLedger(f, 1, &ledger)
	b3 := NewBufferWithLedger(f, 0, &ledger) // pass-through
	data := make([]byte, 64)
	tagA := NewIOTag(CompTIABTree, 0)
	tagB := NewIOTag(CompTIABTree, 1)
	tagC := NewIOTag(CompTIAMVBT, 0)

	for i := 0; i < 4; i++ {
		id, err := b1.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if err := b1.PutTag(id, data, tagA); err != nil {
			t.Fatal(err)
		}
		if _, err := b2.GetTag(id, tagB); err != nil {
			t.Fatal(err)
		}
		if err := b3.PutTag(id, data, tagC); err != nil { // physical write
			t.Fatal(err)
		}
		if _, err := b3.GetTag(id, tagC); err != nil { // physical read
			t.Fatal(err)
		}
	}
	if err := b1.Flush(); err != nil { // untagged physical writes
		t.Fatal(err)
	}
	sum := b1.Stats().Add(b2.Stats()).Add(b3.Stats())
	if got := ledger.Stats(); got != sum {
		t.Fatalf("ledger total %+v != summed buffer stats %+v", got, sum)
	}
	if d := ledger.Stats().Sub(sum); (d != Stats{}) {
		t.Errorf("Sub = %+v, want zero", d)
	}
	bd := ledger.Breakdown()
	if bd[CompTIABTree][1].Misses == 0 {
		t.Error("reads through b2 not attributed to level 1")
	}
	if got, want := bd[CompTIAMVBT][0], (IOCell{Misses: 4, LogicalWrites: 4, PhysicalWrites: 4}); got != want {
		t.Errorf("pass-through cell = %+v, want %+v", got, want)
	}
	if bd[CompUnknown][0].PhysicalWrites == 0 {
		t.Error("flush write-backs not attributed to unknown")
	}
}

// TestLedgerAddAcct checks the owned half of the rule: traffic carrying an
// acct — the eviction and dirty write-back it forces included — stays out
// of the ledger until the owner adds the acct, arrives in the cells of its
// tags with the clean/dirty split intact, and is added once however often
// the owner folds.
func TestLedgerAddAcct(t *testing.T) {
	f := NewMemFile(64)
	var ledger Ledger
	b := NewBufferWithLedger(f, 1, &ledger)
	var ids [3]PageID
	for i := range ids {
		ids[i], _ = b.Alloc()
	}
	data := make([]byte, 64)
	if err := b.Put(ids[0], data); err != nil { // unowned: one dirty frame
		t.Fatal(err)
	}
	setup := ledger.Breakdown()

	var io IOBreakdown
	acct := IOAcct{IO: &io}
	rtag := NewIOTag(CompTIABTree, 2).WithAcct(&acct)
	wtag := NewIOTag(CompTIABTree, 0).WithAcct(&acct)
	if _, err := b.GetTag(ids[1], rtag); err != nil { // miss, evicts dirty ids[0]
		t.Fatal(err)
	}
	if _, err := b.GetTag(ids[1], rtag); err != nil { // hit
		t.Fatal(err)
	}
	if err := b.PutTag(ids[2], data, wtag); err != nil { // evicts clean ids[1]
		t.Fatal(err)
	}
	if got := ledger.Breakdown(); got != setup || ledger.DirtyEvictions() != 0 {
		t.Fatalf("owned traffic reached the ledger before the fold: %+v", nonZero(&got))
	}
	if got, want := acct.Stats.Add(setup.Total()), b.Stats(); got != want {
		t.Fatalf("acct + set-up %+v != buffer stats %+v", got, want)
	}

	ledger.AddAcct(&acct)
	var mine IOBreakdown
	acct.DrainTo(&mine)
	ledger.AddAcct(&acct) // drained: adds nothing
	if got, want := ledger.Stats(), b.Stats(); got != want {
		t.Fatalf("ledger total after the fold %+v != buffer stats %+v", got, want)
	}
	if got := ledger.Breakdown().Sub(setup); got != mine {
		t.Errorf("ledger gained %+v, the acct held %+v", nonZero(&got), nonZero(&mine))
	}
	if got := ledger.DirtyEvictions(); got != 1 {
		t.Errorf("%d dirty evictions after the fold, want 1 of the 2", got)
	}
	if got, want := mine[CompTIABTree][2], (IOCell{Hits: 1, Misses: 1, PhysicalWrites: 1, Evictions: 1}); got != want {
		t.Errorf("read cell = %+v, want %+v", got, want)
	}
	if got, want := mine[CompTIABTree][0], (IOCell{LogicalWrites: 1, Evictions: 1}); got != want {
		t.Errorf("write cell = %+v, want %+v", got, want)
	}
	if acct.Stats != (Stats{}) || acct.DirtyEvictions != 0 || !io.IsZero() {
		t.Errorf("drained acct not empty: %+v", acct.Stats)
	}
}

func TestIOBreakdownSubAddComponent(t *testing.T) {
	var a, b IOBreakdown
	tag := NewIOTag(CompRTreeInternal, 2)
	a.AddRead(tag, true)
	a.AddRead(tag, false)
	a[CompRTreeInternal][2].PhysicalWrites++
	a[CompRTreeInternal][2].Evictions++
	b.AddRead(tag, true)
	d := a.Sub(b)
	want := IOCell{Misses: 1, PhysicalWrites: 1, Evictions: 1}
	if got := d[CompRTreeInternal][2]; got != want {
		t.Errorf("Sub cell = %+v, want %+v", got, want)
	}
	d.Add(&b)
	if got := d.Component(CompRTreeInternal); got != (IOCell{Hits: 1, Misses: 1, PhysicalWrites: 1, Evictions: 1}) {
		t.Errorf("Component fold = %+v", got)
	}
	if d.IsZero() {
		t.Error("IsZero on non-empty breakdown")
	}
	var zero IOBreakdown
	if !zero.IsZero() {
		t.Error("zero breakdown not IsZero")
	}
}

func TestIOBreakdownJSON(t *testing.T) {
	var b IOBreakdown
	b.AddRead(NewIOTag(CompRTreeLeaf, 0), true)
	b.AddRead(NewIOTag(CompTIABTree, 1), false)
	out, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	s := string(out)
	for _, want := range []string{`"component":"rtree-leaf"`, `"component":"tia-btree"`, `"level":1`, `"misses":1`} {
		if !strings.Contains(s, want) {
			t.Errorf("JSON %s missing %s", s, want)
		}
	}
	if strings.Contains(s, "tia-mvbt") {
		t.Errorf("JSON %s contains zero cells", s)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(out, &decoded); err != nil {
		t.Fatalf("output is not a JSON array: %v", err)
	}
	if len(decoded) != 2 {
		t.Errorf("JSON has %d rows, want 2", len(decoded))
	}
}
