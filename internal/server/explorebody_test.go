package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"bfdn/internal/tree"
)

// exploreBodySeeds are the bodies FuzzExploreBody starts from: the shape
// of a large uploaded tree, one body for each case that leaves the fast
// path, and the edges of the parents field and of the body itself.
func exploreBodySeeds(t testing.TB) []string {
	uploaded, err := json.Marshal(struct {
		Parents   []int32 `json:"parents"`
		K         int     `json:"k"`
		Algorithm string  `json:"algorithm"`
	}{tree.Random(300, 20, rand.New(rand.NewSource(1))).Parents(), 64, "bfdn"})
	if err != nil {
		t.Fatal(err)
	}
	return []string{
		string(uploaded),
		`{"family":"random","n":200000,"depth":60,"treeSeed":7,"k":64,"algorithm":"bfdn"}`,
		// Fallbacks: an escaped key, a non-ASCII key that folds to
		// "parents", a second parents key, and elements that are not plain
		// int32 literals.
		`{"par\u0065nts":[-1,0],"k":2}`,
		`{"parentſ":[-1,0],"k":2}`,
		`{"parents":[-1,0],"PARENTS":[-1,0,0],"k":2}`,
		`{"parents":[-1,0.0],"k":2}`,
		`{"parents":[-1,0e0],"k":2}`,
		`{"parents":[-1,00],"k":2}`,
		`{"parents":[-1,2147483648],"k":2}`,
		`{"parents":[-2147483649,0],"k":2}`,
		`{"parents":[-1,"0"],"k":2}`,
		// The parents field's edges.
		`{"parents":[],"k":1}`,
		`{"parents":null,"k":1}`,
		`{"k":2, "Parents" : [ -1 , 0 , -0 ] }`,
		`{"parents":[-2147483648,2147483647,0]}`,
		// Trailing bytes after the object, and bodies that are no object.
		`{"parents":[-1,0],"k":2} trailing`,
		`{"k":2}{"parents":[-1]}`,
		`null`,
		`[-1,0]`,
		`{}`,
		// Errors before and after the array, and a truncated body.
		`{"k":"2","parents":[-1,0],"n":"x"}`,
		`{"parents":[-1,0],"k":}`,
		`{"parents":[-1,0],"nope":1}`,
		`{"a":[},"parents":[-1,0]}`,
		`{"parents":[-1,0,`,
	}
}

// FuzzExploreBody checks decodeExploreBody against the whole-body decoder
// it stands in for: for any body, both accept or both reject with the same
// error, and accepted requests are equal. It checks the same after a read
// error, as when a body passes the size limit, and that a node limit
// admits no parents array longer than itself.
func FuzzExploreBody(f *testing.F) {
	for _, s := range exploreBodySeeds(f) {
		f.Add([]byte(s))
	}
	cut := errors.New("read cut short")
	f.Fuzz(func(t *testing.T, body []byte) {
		var want exploreRequest
		wantErr := decodeJSONFrom(bytes.NewReader(body), &want)
		got, err := decodeExploreBody(bytes.Clone(body), nil, math.MaxInt)
		sameDecode(t, "", got, err, want, wantErr)

		var wantCut exploreRequest
		wantCutErr := decodeJSONFrom(io.MultiReader(bytes.NewReader(body), errReader{cut}), &wantCut)
		got, err = decodeExploreBody(bytes.Clone(body), cut, math.MaxInt)
		sameDecode(t, "after a read error", got, err, wantCut, wantCutErr)

		// A refusal for the node limit names it; anything else the limit
		// lets through decodes as without it.
		const limit = 2
		got, err = decodeExploreBody(bytes.Clone(body), nil, limit)
		switch {
		case err != nil && strings.HasPrefix(err.Error(), "tree has "):
		case wantErr == nil && len(want.Parents) > limit:
			t.Fatalf("limit %d let %d parents through (error %v)", limit, len(want.Parents), err)
		default:
			sameDecode(t, "under the node limit", got, err, want, wantErr)
		}
	})
}

func sameDecode(t *testing.T, when string, got exploreRequest, err error, want exploreRequest, wantErr error) {
	t.Helper()
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("%s: error %v, want %v", when, err, wantErr)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: decoded %+v, want %+v", when, got, want)
	}
}

// TestExploreRefusesLongParentsBeforeAllocating sends a parents array far
// longer than the node limit: the refusal must be a 400 that allocates
// little beyond the body itself, not the decoded array.
func TestExploreRefusesLongParentsBeforeAllocating(t *testing.T) {
	const elems = 1 << 20
	srv := New(Config{MaxNodes: 1000})
	body := `{"k":1,"parents":[` + strings.Repeat("0,", elems-1) + `0]}`
	req := httptest.NewRequest(http.MethodPost, "/v1/explore", strings.NewReader(body))
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	srv.Handler().ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "limit is 1000") {
		t.Fatalf("status %d, body %s; want 400 naming the node limit", rec.Code, rec.Body)
	}
	// The array alone would take 4 MiB as []int32.
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(len(body))+1<<20 {
		t.Errorf("refusal allocated %d bytes for a %d-byte body", alloc, len(body))
	}
}

// BenchmarkDecodeExploreBody decodes the body of a 200k-node uploaded tree,
// the explore-large shape, by the fast path and by the whole-body decoder
// it replaces.
func BenchmarkDecodeExploreBody(b *testing.B) {
	body, err := json.Marshal(exploreRequest{
		Parents: tree.Random(200_000, 60, rand.New(rand.NewSource(1))).Parents(), K: 64, Algorithm: "bfdn"})
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, len(body))
	b.Run("scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			copy(buf, body)
			if _, err := decodeExploreBody(buf, nil, math.MaxInt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decoder", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req exploreRequest
			if err := decodeJSONFrom(bytes.NewReader(body), &req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
