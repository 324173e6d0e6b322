package openflow

import (
	"bytes"
	"testing"
)

func telemetryModFixture() *TelemetryMod {
	m := &TelemetryMod{
		Epoch:      7,
		IntervalMS: 250,
		Rules: []MonitorRule{
			{ID: 1, Src: [4]byte{10, 1, 0, 0}, SrcBits: 24, Dst: [4]byte{10, 2, 0, 0}, DstBits: 24},
			{ID: 9, Src: [4]byte{10, 3, 0, 0}, SrcBits: 16, Dst: [4]byte{10, 4, 0, 5}, DstBits: 32},
		},
	}
	m.SetXID(0x0a0b0c0d)
	return m
}

func TestTelemetryModRoundTrip(t *testing.T) {
	got := roundTrip(t, telemetryModFixture()).(*TelemetryMod)
	if got.Epoch != 7 || got.IntervalMS != 250 || len(got.Rules) != 2 {
		t.Fatalf("decoded %+v", got)
	}
	roundTrip(t, &TelemetryMod{Epoch: 1}) // empty rule set = "stop monitoring"
}

func TestTelemetryExportRoundTrip(t *testing.T) {
	m := &TelemetryExport{
		Epoch: 7,
		Entries: []TelemetryEntry{
			{ID: 1, Packets: 12, Bytes: 18000},
			{ID: 9, Packets: 1 << 40, Bytes: 1 << 50},
		},
	}
	got := roundTrip(t, m).(*TelemetryExport)
	if got.Epoch != 7 || got.Entries[1].Bytes != 1<<50 {
		t.Fatalf("decoded %+v", got)
	}
	roundTrip(t, &TelemetryExport{Epoch: 7}) // no entries
}

// TestTelemetryGoldenWire pins the exact wire encoding of each telemetry
// message so protocol drift (field order, widths, varint choice) fails
// loudly rather than silently desynchronizing old and new peers.
func TestTelemetryGoldenWire(t *testing.T) {
	mod := &TelemetryMod{Epoch: 0x0102030405060708, IntervalMS: 500,
		Rules: []MonitorRule{{ID: 0x11, Src: [4]byte{10, 1, 0, 0}, SrcBits: 24,
			Dst: [4]byte{10, 2, 0, 0}, DstBits: 24}}}
	mod.SetXID(0x42)
	wantMod := []byte{
		Version, byte(TypeTelemetryMod), 0, 0x24, 0, 0, 0, 0x42, // header (len patched)
		1, 2, 3, 4, 5, 6, 7, 8, // epoch
		0, 0, 1, 0xf4, // interval 500ms
		0, 1, // one rule
		0, 0, 0, 0x11, // rule id
		10, 1, 0, 0, 24, // src 10.1.0.0/24
		10, 2, 0, 0, 24, // dst 10.2.0.0/24
	}
	if got := mod.AppendTo(nil); !bytes.Equal(got, wantMod) {
		t.Errorf("TelemetryMod wire:\n got %x\nwant %x", got, wantMod)
	}

	ex := &TelemetryExport{Epoch: 2,
		Entries: []TelemetryEntry{{ID: 300, Packets: 1, Bytes: 1500}}}
	ex.SetXID(0x43)
	wantEx := []byte{
		Version, byte(TypeTelemetryExport), 0, 0x17, 0, 0, 0, 0x43,
		0, 0, 0, 0, 0, 0, 0, 2, // epoch
		0, 1, // one entry
		0xac, 0x02, // id 300 as uvarint
		0x01,       // packets 1
		0xdc, 0x0b, // bytes 1500 as uvarint
	}
	if got := ex.AppendTo(nil); !bytes.Equal(got, wantEx) {
		t.Errorf("TelemetryExport wire:\n got %x\nwant %x", got, wantEx)
	}

}

func TestTelemetryDecodeRejectsOversizedCounts(t *testing.T) {
	// A claimed rule/entry count larger than the body can hold must be
	// rejected up front, not trusted into a huge allocation.
	mod := validFrame(TypeTelemetryMod, 1, []byte{
		0, 0, 0, 0, 0, 0, 0, 1, // epoch
		0, 0, 0, 0, // interval
		0xff, 0xff, // 65535 rules, no bytes
	})
	if _, err := Unmarshal(mod); err == nil {
		t.Error("oversized TelemetryMod rule count accepted")
	}
	ex := validFrame(TypeTelemetryExport, 1, []byte{
		0, 0, 0, 0, 0, 0, 0, 1, // epoch
		0xff, 0xff, // 65535 entries, no bytes
	})
	if _, err := Unmarshal(ex); err == nil {
		t.Error("oversized TelemetryExport entry count accepted")
	}
}

// TestTelemetryExportAppendAllocBudget: the export-encode path — a switch
// appending its periodic export into a reused batch buffer — must not
// allocate once the buffer is warm. This is the telemetry analogue of the
// flow-mod AppendTo gate.
func TestTelemetryExportAppendAllocBudget(t *testing.T) {
	entries := make([]TelemetryEntry, 256)
	for i := range entries {
		entries[i] = TelemetryEntry{ID: uint32(i), Packets: uint64(i) * 3, Bytes: uint64(i) * 4500}
	}
	ex := &TelemetryExport{Epoch: 1, Entries: entries}
	buf := ex.AppendTo(nil) // warm to working-set capacity
	if got := testing.AllocsPerRun(200, func() {
		ex.Entries[0].Packets++
		buf = ex.AppendTo(buf[:0])
	}); got > 0 {
		t.Fatalf("AppendTo(TelemetryExport) = %.1f allocs/op, budget 0", got)
	}
}
