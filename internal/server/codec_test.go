package server

import (
	"fmt"
	"reflect"
	"testing"

	"cwc/internal/tasks"
	"cwc/internal/wal"
	"cwc/internal/wire"
)

// raceEnabled is set when the tests run under the race detector.
var raceEnabled bool

// fillRecord sets every field under v to a distinct non-zero value, by
// reflection, so a field added to a record later is covered without
// touching this test. A held section is given raw bytes, as the live
// master gives it.
func fillRecord(v reflect.Value, seed *int) {
	*seed++
	if v.Type() == reflect.TypeFor[wire.Held]() {
		v.Set(reflect.ValueOf(wire.Held{Bytes: []byte(fmt.Sprintf("bytes%d", *seed))}))
		return
	}
	switch v.Kind() {
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *seed))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*seed) * -7)
	case reflect.Float64:
		v.SetFloat(float64(*seed) + 0.25)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillRecord(v.Elem(), seed)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillRecord(v.Field(i), seed)
		}
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			v.SetBytes([]byte(fmt.Sprintf("bytes%d", *seed)))
			return
		}
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fillRecord(v.Index(i), seed)
		}
	default:
		panic("fillRecord: unhandled kind " + v.Kind().String())
	}
}

// TestWALCodecKeepsEveryField: every record type — enumerated by
// decodeWAL itself, so a new one is covered — with every field set to a
// distinct non-zero value, pointers and round items included, decodes
// to what it encodes. A field added without a tag in its Wire method
// comes back zero, and fails here; so does a present checkpoint that
// holds nothing.
func TestWALCodecKeepsEveryField(t *testing.T) {
	empty := wal.Record{Payload: []byte{0, 0, 0, 0}} // a unit with an empty header
	for typ := walRecSubmit; typ < walRecEnd; typ++ {
		if _, retired := retiredWALTypes[typ]; retired {
			continue
		}
		empty.Type = typ
		rec, err := decodeWAL(empty)
		if err != nil {
			t.Fatalf("type %d: %v", typ, err)
		}
		seed := 0
		fillRecord(reflect.ValueOf(rec).Elem(), &seed)
		logged := wal.Record{Type: typ, Payload: encodeWAL(t, rec)}
		got, err := decodeWAL(logged)
		if err != nil {
			t.Fatalf("%T: %v", rec, err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Errorf("%T changed in the log:\n got %+v\nwant %+v", rec, got, rec)
		}
	}
	mig := &walMigrate{JobID: 1, Key: 2, Resume: &tasks.Checkpoint{}}
	got, err := decodeWAL(wal.Record{Type: walRecMigrate, Payload: encodeWAL(t, mig)})
	if err != nil || !reflect.DeepEqual(got, mig) {
		t.Errorf("a migrate to an empty checkpoint decoded as %+v (%v)", got, err)
	}
}

// A report — one per job — encodes without allocating and decodes into
// its struct alone.
func TestWALReportAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	rep := &walReport{JobID: 4321, Key: 98765, Bytes: 4096, Partial: wire.Held{Bytes: []byte("17")}}
	c := new(wire.Codec)
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := wire.Encode(c, 0, rep); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Errorf("encoding a report allocated %.0f times, want 0", allocs)
	}
	logged := wal.Record{Type: walRecReport, Payload: encodeWAL(t, rep)}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := decodeWAL(logged); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 {
		t.Errorf("decoding a report allocated %.0f times, want at most 1", allocs)
	}
}
