package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"unicode/utf8"
)

// readExploreRequest reads a POST /v1/explore body. Its one costly field is
// the parents array, which on a large uploaded tree makes up nearly the
// whole body, so it is read once into a buffer sized from Content-Length
// and handed to decodeExploreBody.
func readExploreRequest(w http.ResponseWriter, r *http.Request, maxNodes int) (exploreRequest, error) {
	size := bytes.MinRead
	if r.ContentLength > 0 && r.ContentLength < maxBody {
		size = int(r.ContentLength) + 1 // room to read the EOF without growing
	}
	body := make([]byte, 0, size)
	rd := http.MaxBytesReader(w, r.Body, maxBody)
	for {
		if len(body) == cap(body) {
			body = append(body, 0)[:len(body)]
		}
		n, err := rd.Read(body[len(body):cap(body)])
		body = body[:len(body)+n]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return decodeExploreBody(body, err, maxNodes)
		}
	}
}

// decodeExploreBody decodes an explore body read up to readErr (nil when
// the body ended cleanly). It accepts, rejects and fills exactly what
// decodeJSON does, and refuses a parents array of more than maxNodes
// elements before allocating it.
//
// The fast path takes a body whose first JSON value is an object with one
// top-level parents key, spelt in plain ASCII, holding an array of plain
// int32 literals. It parses the array by hand into an exactly sized slice,
// cuts it out of body in place (leaving "[]"), and runs decodeJSON's
// decoder over the few bytes left, so every other field and every error
// still comes from encoding/json. Any other body takes that decoder whole.
// The decoder stops at the end of a complete first object, so the fast
// path, which needs one, never reaches readErr. body is modified.
func decodeExploreBody(body []byte, readErr error, maxNodes int) (exploreRequest, error) {
	var req exploreRequest
	sc, err := scanExploreBody(body, maxNodes)
	if err != nil {
		return req, err
	}
	if !sc.fast {
		var rd io.Reader = bytes.NewReader(body)
		if readErr != nil {
			// The decoder sees the bytes read and then the read error, as
			// it would reading the request body itself.
			rd = io.MultiReader(rd, errReader{readErr})
		}
		return req, decodeJSONFrom(rd, &req)
	}
	parents := parseInt32s(body[sc.start+1:sc.end], sc.count)
	n := copy(body[sc.start+1:], body[sc.end:])
	if err := decodeJSONFrom(bytes.NewReader(body[:sc.start+1+n]), &req); err != nil {
		return req, err
	}
	req.Parents = parents
	return req, nil
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// bodyScan is what scanExploreBody found: fast reports that the body takes
// the fast path, with its parents array at body[start:end+1] holding count
// plain int32 literals.
type bodyScan struct {
	fast       bool
	start, end int
	count      int
}

// scanExploreBody walks the members of the body's first value, if it is an
// object, without decoding them. Every array under a key that is, or might
// fold to, "parents" — an ASCII key equal to it under case folding, as
// encoding/json matches keys, or any escaped or non-ASCII key — has its
// elements counted, and more than maxNodes of them is an error. A body the
// walk cannot follow is not valid JSON, so the decoder rejects it before
// allocating anything; such a body, and every body the fast path does not
// cover, reports fast = false.
func scanExploreBody(b []byte, maxNodes int) (bodyScan, error) {
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return bodyScan{}, nil
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return bodyScan{}, nil
	}
	var sc bodyScan
	candidates, plain := 0, true
	for {
		if i == len(b) || b[i] != '"' {
			return bodyScan{}, nil
		}
		j := skipString(b, i)
		if j < 0 {
			return bodyScan{}, nil
		}
		odd := bytes.ContainsFunc(b[i+1:j-1], func(r rune) bool { return r == '\\' || r >= utf8.RuneSelf })
		named := !odd && bytes.EqualFold(b[i+1:j-1], []byte("parents"))
		i = skipSpace(b, j)
		if i == len(b) || b[i] != ':' {
			return bodyScan{}, nil
		}
		i = skipSpace(b, i+1)
		candidate := named || odd
		if candidate {
			candidates++
		}
		if candidate && i < len(b) && b[i] == '[' {
			end, count, ints, ok := scanArray(b, i)
			if !ok {
				return bodyScan{}, nil
			}
			if count > maxNodes {
				return bodyScan{}, fmt.Errorf("tree has %d nodes, limit is %d", count, maxNodes)
			}
			sc.start, sc.end, sc.count = i, end, count
			plain = plain && named && ints
			i = end + 1
		} else {
			if candidate {
				plain = false
			}
			if i = skipValue(b, i); i < 0 {
				return bodyScan{}, nil
			}
		}
		i = skipSpace(b, i)
		if i == len(b) {
			return bodyScan{}, nil
		}
		if b[i] == '}' {
			break
		}
		if b[i] != ',' {
			return bodyScan{}, nil
		}
		i = skipSpace(b, i+1)
	}
	sc.fast = candidates == 1 && plain
	return sc, nil
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// skipString returns the index just past the string starting at b[i] ==
// '"', or -1 if it does not end.
func skipString(b []byte, i int) int {
	for i++; i < len(b); i++ {
		switch b[i] {
		case '\\':
			i++
		case '"':
			return i + 1
		}
	}
	return -1
}

// skipValue returns the index just past the value starting at b[i], or -1
// if none ends there. It checks nesting and string ends only: whatever
// else is malformed, the decoder reports.
func skipValue(b []byte, i int) int {
	if i == len(b) {
		return -1
	}
	switch b[i] {
	case '"':
		return skipString(b, i)
	case '{', '[':
		depth := 0
		for ; i < len(b); i++ {
			switch b[i] {
			case '"':
				if i = skipString(b, i); i < 0 {
					return -1
				}
				i--
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					return i + 1
				}
			}
		}
		return -1
	}
	j := i
	for j < len(b) && !isDelim(b[j]) {
		j++
	}
	if j == i {
		return -1
	}
	return j
}

func isDelim(c byte) bool {
	switch c {
	case ',', '}', ']', ':', '"', '{', '[', ' ', '\t', '\n', '\r':
		return true
	}
	return false
}

// scanArray walks the array starting at b[i] == '[' and returns the index
// of its ']', its element count, and whether every element is a plain
// int32 literal: an optional minus sign and at most ten digits without a
// leading zero, no fraction or exponent, within the int32 range.
func scanArray(b []byte, i int) (end, count int, ints, ok bool) {
	ints = true
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == ']' {
		return i, 0, true, true
	}
	for {
		if i == len(b) {
			return 0, 0, false, false
		}
		j := i
		if b[j] == '-' {
			j++
		}
		d := j
		var v int64
		for j < len(b) && j-d <= 10 && b[j] >= '0' && b[j] <= '9' {
			v = v*10 + int64(b[j]-'0')
			j++
		}
		if b[i] == '-' {
			v = -v
		}
		if j == d || j-d > 10 || (b[d] == '0' && j-d > 1) || j == len(b) || !isDelim(b[j]) ||
			v < -1<<31 || v > 1<<31-1 {
			ints = false
			if j = skipValue(b, i); j < 0 {
				return 0, 0, false, false
			}
		}
		count++
		i = skipSpace(b, j)
		if i == len(b) {
			return 0, 0, false, false
		}
		if b[i] == ']' {
			return i, count, ints, true
		}
		if b[i] != ',' {
			return 0, 0, false, false
		}
		i = skipSpace(b, i+1)
	}
}

// parseInt32s parses the n comma-separated plain int32 literals that
// scanArray vetted in b.
func parseInt32s(b []byte, n int) []int32 {
	out := make([]int32, n)
	i := 0
	for k := range out {
		for b[i] != '-' && (b[i] < '0' || b[i] > '9') {
			i++
		}
		neg := b[i] == '-'
		if neg {
			i++
		}
		var v int64
		for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
			v = v*10 + int64(b[i]-'0')
		}
		if neg {
			v = -v
		}
		out[k] = int32(v)
	}
	return out
}
