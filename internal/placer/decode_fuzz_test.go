package placer

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
)

// Seed corpora for both fuzzers are under testdata/fuzz/: a sealed service
// job record, a sealed service lease file (another format, so
// FuzzOpenSealedJSON rejects it as ErrCheckpointVersion), a sealed
// checkpoint, a legacy bare-JSON checkpoint and a truncated sealed
// checkpoint.

// decodeErr fails t unless err is one of the two decode sentinels: every
// rejected blob is either damaged bytes or an intact blob of another format.
func decodeErr(t *testing.T, err error) {
	t.Helper()
	if !errors.Is(err, ErrCheckpointCorrupt) && !errors.Is(err, ErrCheckpointVersion) {
		t.Fatalf("rejection matches neither ErrCheckpointCorrupt nor ErrCheckpointVersion: %v", err)
	}
}

// FuzzOpenSealedJSON feeds arbitrary bytes to OpenSealedJSON under the
// service's job-record format. It must not panic, must reject with one of the
// decode sentinels, and whatever it accepts must seal and open again to an
// equal value.
func FuzzOpenSealedJSON(f *testing.F) {
	const format = "tap25d-job"
	f.Fuzz(func(t *testing.T, blob []byte) {
		var v any
		if err := OpenSealedJSON(blob, format, &v); err != nil {
			decodeErr(t, err)
			return
		}
		resealed, err := SealJSON(format, v)
		if err != nil {
			t.Fatalf("accepted value does not seal: %v", err)
		}
		var w any
		if err := OpenSealedJSON(resealed, format, &w); err != nil {
			t.Fatalf("resealed value does not open: %v", err)
		}
		if !reflect.DeepEqual(v, w) {
			t.Fatalf("resealed value opens as %#v, want %#v", w, v)
		}
	})
}

// FuzzDecodeCheckpoint feeds arbitrary bytes to DecodeCheckpoint. It must not
// panic, must reject with one of the decode sentinels, and a checkpoint it
// accepts must re-encode, sealed as SaveCheckpointFile writes it and bare as
// Encode writes it, and decode to an equal value: one whose own encoding is
// byte-identical (the JSON form is the value a checkpoint file holds; an
// empty list and an omitted one are the same checkpoint).
func FuzzDecodeCheckpoint(f *testing.F) {
	f.Fuzz(func(t *testing.T, blob []byte) {
		cp, err := DecodeCheckpoint(bytes.NewReader(blob))
		if err != nil {
			decodeErr(t, err)
			return
		}
		want, err := json.Marshal(cp)
		if err != nil {
			t.Fatalf("accepted checkpoint does not encode: %v", err)
		}
		var bare bytes.Buffer
		if err := cp.Encode(&bare); err != nil {
			t.Fatalf("accepted checkpoint does not encode bare: %v", err)
		}
		sealed, err := sealCheckpoint(cp)
		if err != nil {
			t.Fatalf("accepted checkpoint does not seal: %v", err)
		}
		for name, enc := range map[string][]byte{"bare": bare.Bytes(), "sealed": sealed} {
			again, err := DecodeCheckpoint(bytes.NewReader(enc))
			if err != nil {
				t.Fatalf("%s re-encoding does not decode: %v", name, err)
			}
			got, err := json.Marshal(again)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s round trip changed the checkpoint:\n%s\nwant\n%s", name, got, want)
			}
		}
	})
}
