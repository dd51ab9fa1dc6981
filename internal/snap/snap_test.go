package snap

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"tafloc/internal/core"
	"tafloc/internal/geom"
	"tafloc/internal/mat"
	"tafloc/internal/track"
	"tafloc/taflocerr"
)

// testSnapshot builds a representative snapshot with every field
// populated (including the optional Observed matrix).
func testSnapshot(t testing.TB) *Snapshot {
	t.Helper()
	grid, err := geom.NewGrid(3.0, 2.0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	links := geom.CrossedDeployment(3.0, 2.0, 5)
	layout, err := core.NewLayout(links, grid, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	m, n := layout.M(), layout.N()
	survey := mat.New(m, n)
	vacant := make([]float64, m)
	for i := 0; i < m; i++ {
		vacant[i] = -40 - float64(i)
		for j := 0; j < n; j++ {
			survey.Set(i, j, -40-float64(i)-0.8*float64(j%7))
		}
	}
	sys, err := core.NewSystem(layout, survey, vacant, core.DefaultSystemOptions())
	if err != nil {
		t.Fatal(err)
	}
	st := sys.ExportState()
	st.Observed = mat.New(m, n) // exercise the optional-matrix path
	trk, err := track.NewTracker(track.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	trk.Observe(geom.Point{X: 1.2, Y: 0.8}, time.Unix(1_700_000_000, 0))
	trk.Observe(geom.Point{X: 1.4, Y: 0.9}, time.Unix(1_700_000_001, 0))
	ts := trk.Export()
	return &Snapshot{
		Zone:    "lobby/east wing",
		SavedAt: time.Unix(1_700_000_000, 123456789).UTC(),
		Config: ZoneConfig{
			Window:            6,
			DetectThresholdDB: 0.25,
			Detector:          "rms",
			History:           128,
			Track:             track.DefaultOptions(),
		},
		State: st,
		Track: &ts,
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	want := testSnapshot(t)
	data, err := Encode(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Zone != want.Zone || !got.SavedAt.Equal(want.SavedAt) || got.Config != want.Config {
		t.Errorf("header round trip: %+v != %+v", got, want)
	}
	if !reflect.DeepEqual(got.State, want.State) {
		t.Error("system state did not round-trip exactly")
	}
	if got.Track == nil {
		t.Fatal("tracker state lost in round trip")
	}
	if got.Track.Filter != want.Track.Filter || got.Track.HasFix != want.Track.HasFix ||
		!got.Track.LastFix.Equal(want.Track.LastFix) {
		t.Errorf("tracker state round trip: %+v != %+v", got.Track, want.Track)
	}

	// A nil Observed must round-trip to nil, not an empty matrix.
	want.State.Observed = nil
	data, err = Encode(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err = Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.State.Observed != nil {
		t.Error("nil Observed decoded non-nil")
	}
}

// TestDecodeTruncationFailsClosed chops the encoding at every length and
// requires a typed error — never a panic, never success.
func TestDecodeTruncationFailsClosed(t *testing.T) {
	data, err := Encode(testSnapshot(t))
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(data); n++ {
		sn, err := Decode(data[:n])
		if err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully: %+v", n, sn)
		}
		if !errors.Is(err, taflocerr.ErrSnapshotCorrupt) && !errors.Is(err, taflocerr.ErrSnapshotVersion) {
			t.Fatalf("truncation to %d: error %v is not a snapshot error", n, err)
		}
	}
}

// TestDecodeBitFlipsFailClosed flips one bit at a sample of offsets; the
// CRC (or header validation) must catch every one.
func TestDecodeBitFlipsFailClosed(t *testing.T) {
	data, err := Encode(testSnapshot(t))
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(data); off += 7 {
		mut := append([]byte(nil), data...)
		mut[off] ^= 1 << (off % 8)
		if sn, err := Decode(mut); err == nil {
			t.Fatalf("bit flip at %d decoded successfully: %+v", off, sn)
		}
	}
}

func TestDecodeTrailingGarbage(t *testing.T) {
	data, err := Encode(testSnapshot(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(append(data, 0xAA)); !errors.Is(err, taflocerr.ErrSnapshotCorrupt) {
		t.Errorf("trailing byte: %v", err)
	}
}

func TestDecodeVersionAndMagic(t *testing.T) {
	data, err := Encode(testSnapshot(t))
	if err != nil {
		t.Fatal(err)
	}
	wrongMagic := append([]byte(nil), data...)
	wrongMagic[0] = 'X'
	if _, err := Decode(wrongMagic); !errors.Is(err, taflocerr.ErrSnapshotVersion) {
		t.Errorf("wrong magic: %v", err)
	}
	future := append([]byte(nil), data...)
	future[8] = Version + 1
	if _, err := Decode(future); !errors.Is(err, taflocerr.ErrSnapshotVersion) {
		t.Errorf("future version: %v", err)
	}
	if _, err := Decode(nil); !errors.Is(err, taflocerr.ErrSnapshotCorrupt) {
		t.Errorf("empty input: %v", err)
	}
}

// TestDecodeVersionPrev pins backward compatibility against bytes an
// older build wrote: testdata/v1.snap is testSnapshot encoded by the last
// build that could still write format version 1. It must still decode —
// calibrated state intact, trajectory fields at their "not recorded"
// zero values.
func TestDecodeVersionPrev(t *testing.T) {
	want := testSnapshot(t)
	data, err := os.ReadFile(filepath.Join("testdata", "v1.snap"))
	if err != nil {
		t.Fatal(err)
	}
	v2, err := Encode(want)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) >= len(v2) {
		t.Errorf("v1 encoding (%d bytes) not smaller than v2 (%d)", len(data), len(v2))
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("decode v%d: %v", VersionPrev, err)
	}
	if got.Zone != want.Zone || !got.SavedAt.Equal(want.SavedAt) {
		t.Errorf("v1 header: %+v", got)
	}
	if got.Config.Window != want.Config.Window || got.Config.Detector != want.Config.Detector {
		t.Errorf("v1 config: %+v", got.Config)
	}
	if !reflect.DeepEqual(got.State, want.State) {
		t.Error("v1 system state did not round-trip exactly")
	}
	if got.Config.History != 0 || got.Config.Track != (track.Options{}) || got.Track != nil {
		t.Errorf("v1 decode invented trajectory state: %+v track=%+v", got.Config, got.Track)
	}
}

func TestWriteReadFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "lobby.snap")
	want := testSnapshot(t)
	if err := WriteFile(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.State, want.State) {
		t.Error("file round trip lost state")
	}
	// Overwrite must go through the same atomic path and leave no temp
	// files behind.
	if err := WriteFile(path, want); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory holds %d entries after overwrite, want only the snapshot", len(entries))
	}
}

// FuzzDecode pins the decoder's no-panic invariant on arbitrary input,
// and on mutations of a valid snapshot (the corpus seed).
func FuzzDecode(f *testing.F) {
	data, err := Encode(testSnapshot(f))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		sn, err := Decode(b)
		if err == nil {
			// Whatever decodes must re-encode; the codec may not accept
			// states it cannot represent.
			if _, err := Encode(sn); err != nil {
				t.Fatalf("decoded snapshot does not re-encode: %v", err)
			}
		}
	})
}
