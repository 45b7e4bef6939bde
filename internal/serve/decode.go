package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/graph"
	"repro/internal/instance"
	"repro/internal/shard"
	"repro/internal/solver"
)

// schedulePass is one POST /v1/schedule request on its single pass: the
// bounded body, the request scalars decoded from it, the graph as edge
// pairs packed by graph.PackEdge, and the normalized budget vector. The
// pass reads the body once (read, parse), runs every check that needs only
// the request (check) and hashes the cache key (key); only a cache miss
// builds the graph and runs the solver's Validate (instance).
//
// A schedulePass is pooled, so every slice in it is scratch that the next
// request overwrites: nothing a job keeps may alias it.
type schedulePass struct {
	buf []byte
	// req holds the decoded scalars. req.Graph.Edges stays nil (the edges
	// are pairs); req.Batteries aliases bat.
	req     Request
	pairs   []uint64
	bat     []int
	budgets []int
	str     []byte // unescaped strings
	// badEdge is the first edge with an endpoint outside [0, 1<<31), which
	// packs into no pair; -1 when there is none. It is reported after the
	// node-count checks, as the endpoint range check is.
	badEdge    int
	badU, badV int64
}

var bodyPool = sync.Pool{New: func() any { return new(schedulePass) }}

// maxPooled bounds the scratch a pooled schedulePass keeps, in bytes per
// slice, so one huge request does not pin its buffers for good.
const maxPooled = 4 << 20

func (b *schedulePass) release() {
	if cap(b.buf) > maxPooled {
		b.buf = nil
	}
	if 8*cap(b.pairs) > maxPooled {
		b.pairs = nil
	}
	if 8*cap(b.bat) > maxPooled {
		b.bat = nil
	}
	if 8*cap(b.budgets) > maxPooled {
		b.budgets = nil
	}
	if cap(b.str) > maxPooled {
		b.str = nil
	}
	b.req = Request{}
	bodyPool.Put(b)
}

// errTrailingData rejects a body that carries more than one JSON value.
var errTrailingData = errors.New("unexpected data after the request object")

// errorStatus maps a request error onto HTTP: the body and node-count caps
// are 413, every other malformed request is 400.
func errorStatus(err error) int {
	var tooBig *http.MaxBytesError
	var tooLarge errTooLarge
	if errors.As(err, &tooBig) || errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// maxPrealloc bounds the buffer read sizes from Content-Length before any
// body byte arrives: the header is the client's claim, so a larger body
// grows the buffer only as its bytes come in.
const maxPrealloc = 64 << 10

// read reads the whole body into b.buf, bounded by maxBodyBytes.
func (b *schedulePass) read(w http.ResponseWriter, r *http.Request) error {
	buf := b.buf[:0]
	// One spare byte lets the final read see EOF without growing buf.
	if n := min(r.ContentLength, maxPrealloc); n >= 0 && int(n) >= cap(buf) {
		buf = make([]byte, 0, n+1)
	}
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			b.buf = buf
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// Wire names of the Request and GraphSpec fields, as their json tags spell
// them. Keys match them the way encoding/json does: exactly, or else under
// bytes.EqualFold.
var (
	requestFields = []string{"graph", "algorithm", "battery", "batteries", "k",
		"kconst", "seed", "tries", "refine", "budget", "time_budget_ms", "shards",
		"partitioner", "timeout_ms", "async"}
	graphFields = []string{"n", "edges"}
)

func fieldIndex(key []byte, names []string) int {
	for i, name := range names {
		if string(key) == name {
			return i
		}
	}
	for i, name := range names {
		if bytes.EqualFold(key, []byte(name)) {
			return i
		}
	}
	return -1
}

// parse decodes b.buf into b.req, b.pairs and b.bat. It accepts what
// encoding/json decoding into Request with DisallowUnknownFields accepts
// (any key order, case-insensitive keys, null as absent, the last of
// duplicate keys winning), except that every edge must be exactly two
// integers and nothing but whitespace may follow the object.
func (b *schedulePass) parse() error {
	b.req = Request{}
	b.pairs, b.bat = b.pairs[:0], b.bat[:0]
	b.badEdge = -1
	d := decoder{data: b.buf, str: b.str[:0]}
	defer func() { b.str = d.str }()
	if !d.null() {
		if err := d.expect('{'); err != nil {
			return err
		}
		for n := 0; ; n++ {
			key, ok, err := d.member(n)
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			if err := b.field(&d, key); err != nil {
				return err
			}
		}
	}
	d.ws()
	if d.i != len(d.data) {
		return errTrailingData
	}
	return nil
}

func (b *schedulePass) field(d *decoder, key []byte) error {
	r := &b.req
	switch fieldIndex(key, requestFields) {
	case 0:
		return b.graph(d)
	case 1:
		return d.string(&r.Algorithm)
	case 2:
		return d.int(&r.Battery)
	case 3:
		return b.batteries(d)
	case 4:
		return d.int(&r.K)
	case 5:
		return d.float(&r.KConst)
	case 6:
		return d.uint64(&r.Seed)
	case 7:
		return d.int(&r.Tries)
	case 8:
		return d.string(&r.Refine)
	case 9:
		return d.int(&r.Budget)
	case 10:
		return d.int(&r.TimeBudgetMS)
	case 11:
		return d.int(&r.Shards)
	case 12:
		return d.string(&r.Partitioner)
	case 13:
		return d.int(&r.TimeoutMS)
	case 14:
		return d.bool(&r.Async)
	}
	return fmt.Errorf("unknown field %q", key)
}

// graph decodes a GraphSpec object. A repeated "graph" key merges into the
// fields already read, as encoding/json does.
func (b *schedulePass) graph(d *decoder) error {
	if d.null() {
		return nil
	}
	if err := d.expect('{'); err != nil {
		return err
	}
	for n := 0; ; n++ {
		key, ok, err := d.member(n)
		if err != nil || !ok {
			return err
		}
		switch fieldIndex(key, graphFields) {
		case 0:
			err = d.int(&b.req.Graph.N)
		case 1:
			err = b.edges(d)
		default:
			err = fmt.Errorf("unknown field %q in graph", key)
		}
		if err != nil {
			return err
		}
	}
}

// edges decodes the edge list into b.pairs, unsorted and unchecked but for
// the shape of each edge.
func (b *schedulePass) edges(d *decoder) error {
	b.pairs, b.badEdge = b.pairs[:0], -1
	if d.null() {
		return nil
	}
	if err := d.expect('['); err != nil {
		return err
	}
	if d.consume(']') {
		return nil
	}
	for i := 0; ; i++ {
		u, v, err := d.edge(i)
		if err != nil {
			return err
		}
		switch {
		case u >= 0 && u < 1<<31 && v >= 0 && v < 1<<31:
			b.pairs = append(b.pairs, graph.PackEdge(int(u), int(v)))
		case b.badEdge < 0:
			b.badEdge, b.badU, b.badV = i, u, v
		}
		if d.consume(']') {
			return nil
		}
		if err := d.expect(','); err != nil {
			return err
		}
	}
}

// edge reads edge i, '[' through ']', which must be exactly two integers.
func (d *decoder) edge(i int) (u, v int64, err error) {
	if !d.consume('[') {
		return 0, 0, errEdgeShape(i)
	}
	if u, err = d.endpoint(i); err != nil {
		return 0, 0, err
	}
	if !d.consume(',') {
		return 0, 0, errEdgeShape(i)
	}
	if v, err = d.endpoint(i); err != nil {
		return 0, 0, err
	}
	if !d.consume(']') {
		return 0, 0, errEdgeShape(i)
	}
	return u, v, nil
}

func errEdgeShape(i int) error {
	return fmt.Errorf("graph.edges[%d] is not exactly two integers", i)
}

// batteries decodes the per-node budget list. A repeated key decodes into
// the elements already read, and a null element leaves one as it was (zero
// when new), which is what encoding/json does with a slice.
func (b *schedulePass) batteries(d *decoder) error {
	if d.null() {
		b.req.Batteries, b.bat = nil, b.bat[:0]
		return nil
	}
	if err := d.expect('['); err != nil {
		return err
	}
	if d.consume(']') {
		b.req.Batteries, b.bat = []int{}, b.bat[:0]
		return nil
	}
	for i := 0; ; i++ {
		if i == len(b.bat) {
			b.bat = append(b.bat, 0)
		}
		if err := d.int(&b.bat[i]); err != nil {
			return err
		}
		if d.consume(']') {
			b.req.Batteries = b.bat[:i+1]
			return nil
		}
		if err := d.expect(','); err != nil {
			return err
		}
	}
}

// check runs every check that reads only the request, in the order that
// decides which of several errors a request gets, sorts b.pairs, and fills
// b.budgets. Errors past it come only from the solver's Validate.
func (b *schedulePass) check(maxNodes int) error {
	r := &b.req
	if _, ok := solver.Get(r.Algorithm); !ok {
		return fmt.Errorf("unknown algorithm %q (have %s)",
			r.Algorithm, strings.Join(solver.Names(), ", "))
	}
	if r.Refine != "" && !isRefiner(r.Refine) {
		return fmt.Errorf("refine = %q is not a refinement solver (have %s)",
			r.Refine, strings.Join(solver.RefinerNames(), ", "))
	}
	if r.K < 0 {
		return fmt.Errorf("k = %d must be >= 1", r.K)
	}
	if r.KConst < 0 {
		return fmt.Errorf("kconst = %v must be > 0", r.KConst)
	}
	if r.Tries < 0 {
		return fmt.Errorf("tries = %d must be >= 0", r.Tries)
	}
	if r.Budget < 0 {
		return fmt.Errorf("budget = %d must be >= 0", r.Budget)
	}
	if r.TimeBudgetMS < 0 {
		return fmt.Errorf("time_budget_ms = %d must be >= 0", r.TimeBudgetMS)
	}
	if r.TimeoutMS < 0 {
		return fmt.Errorf("timeout_ms = %d must be >= 0", r.TimeoutMS)
	}
	if r.Shards < 0 {
		return fmt.Errorf("shards = %d must be >= 0", r.Shards)
	}
	switch r.Partitioner {
	case "", "bfs":
	case "geom":
		return fmt.Errorf("partitioner = %q needs node coordinates, which edge-list requests do not carry; use \"bfs\"", r.Partitioner)
	default:
		return fmt.Errorf("unknown partitioner %q (have %s)",
			r.Partitioner, strings.Join(shard.Partitioners(), ", "))
	}

	n := r.Graph.N
	if n < 0 {
		return fmt.Errorf("graph.n = %d must be >= 0", n)
	}
	if n > maxNodes {
		return errTooLarge{fmt.Sprintf("graph.n = %d exceeds the service cap of %d nodes", n, maxNodes)}
	}
	if b.badEdge >= 0 {
		return fmt.Errorf("edge %d {%d,%d}: endpoint out of range [0, %d)", b.badEdge, b.badU, b.badV, n)
	}
	for i, p := range b.pairs {
		u, v := graph.UnpackEdge(p)
		if v >= n {
			return fmt.Errorf("edge %d {%d,%d}: endpoint out of range [0, %d)", i, u, v, n)
		}
		if u == v {
			return fmt.Errorf("edge %d: self-loop at node %d", i, u)
		}
	}
	// Duplicates, in either orientation, pack equal and sort adjacent.
	slices.Sort(b.pairs)
	for i := 1; i < len(b.pairs); i++ {
		if b.pairs[i] == b.pairs[i-1] {
			u, v := graph.UnpackEdge(b.pairs[i])
			return fmt.Errorf("duplicate edge {%d,%d}", u, v)
		}
	}

	b.budgets = b.budgets[:0]
	if len(r.Batteries) > 0 {
		if len(r.Batteries) != n {
			return fmt.Errorf("%d batteries for %d nodes", len(r.Batteries), n)
		}
		for v, x := range r.Batteries {
			if x < 0 {
				return fmt.Errorf("batteries[%d] = %d must be >= 0", v, x)
			}
		}
		b.budgets = append(b.budgets, r.Batteries...)
		return nil
	}
	if r.Battery < 0 {
		return fmt.Errorf("battery = %d must be >= 0", r.Battery)
	}
	for v := 0; v < n; v++ {
		b.budgets = append(b.budgets, r.Battery)
	}
	return nil
}

// key returns the canonical cache/coalescing key of the checked request:
// the graph.Hasher sum over graph structure, normalized budgets, algorithm,
// and parameters. Delivery options are deliberately excluded. Requests for
// "auto" key on the literal name "auto", not on the solver the portfolio
// dispatches to — the dispatch is deterministic in the graph (which the key
// hashes in full), so the entry can never go stale, and an explicit request
// for the concrete solver stays a distinct cache line.
//
// The key hashes every input the solver's Validate reads, and a request is
// cached only after it passed Validate; that is why a cache hit can skip
// building the instance and validating it.
func (b *schedulePass) key() string {
	r := &b.req
	return graph.NewHasher().
		String("kind", "schedule").
		EdgePairs("graph", r.Graph.N, b.pairs).
		Ints("budgets", b.budgets).
		String("alg", r.Algorithm).
		String("refine", r.Refine).
		Int("k", r.k()).
		Float("kconst", r.kconst()).
		Uint64("seed", r.seed()).
		Int("tries", r.tries()).
		Int("budget", r.Budget).
		Int("time_budget_ms", r.TimeBudgetMS).
		Int("shards", r.Shards).
		String("partitioner", r.Partitioner).
		Sum()
}

// instance builds the typed instance of the checked request — the graph
// from the sorted pairs, the budgets, the domination tolerance — and runs
// the effective solver's Validate on it, which supplies the shape checks
// (uniformity for the uniform algorithms, tolerance restrictions, node caps
// for the exponential baselines). A refiner's Validate also resolves and
// validates its base algorithm; for "auto" that runs the portfolio
// dispatch, so a refine stage stacked on an auto that resolves to a
// non-refinable fast path (the grid solver) is rejected here, before any
// job is enqueued. The instance shares no memory with b.
func (b *schedulePass) instance() (*instance.Instance, error) {
	r := &b.req
	budgets := make([]int, len(b.budgets))
	copy(budgets, b.budgets)
	inst := instance.New(graph.NewFromSortedPairs(r.Graph.N, b.pairs), budgets).WithK(r.k())
	sv, _ := solver.Get(r.spec().Name)
	if err := sv.Validate(inst, r.spec()); err != nil {
		return nil, err
	}
	return inst, nil
}

// decoder reads JSON values from data, starting at offset i, with the
// acceptance rules of encoding/json for the Go types it decodes into.
// A JSON null leaves its target as it was.
type decoder struct {
	data []byte
	i    int
	str  []byte
}

func (d *decoder) syntaxError(what string) error {
	if d.i >= len(d.data) {
		return fmt.Errorf("unexpected end of JSON input, want %s", what)
	}
	return fmt.Errorf("invalid character %q at offset %d, want %s", d.data[d.i], d.i, what)
}

// ws skips JSON whitespace.
func (d *decoder) ws() {
	for d.i < len(d.data) {
		if c := d.data[d.i]; c > ' ' || (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
			return
		}
		d.i++
	}
}

// consume skips whitespace and then c, if c is next.
func (d *decoder) consume(c byte) bool {
	d.ws()
	if d.i < len(d.data) && d.data[d.i] == c {
		d.i++
		return true
	}
	return false
}

func (d *decoder) expect(c byte) error {
	if !d.consume(c) {
		return d.syntaxError(strconv.QuoteRune(rune(c)))
	}
	return nil
}

// literal consumes the keyword lit (null, true, false) if it is next.
func (d *decoder) literal(lit string) bool {
	d.ws()
	if bytes.HasPrefix(d.data[d.i:], []byte(lit)) {
		d.i += len(lit)
		return true
	}
	return false
}

func (d *decoder) null() bool { return d.literal("null") }

// member reads the next member key of an object whose '{' and first n
// members have been read, through its ':'. ok is false at the closing '}'.
func (d *decoder) member(n int) (key []byte, ok bool, err error) {
	if d.consume('}') {
		return nil, false, nil
	}
	if n > 0 {
		if err := d.expect(','); err != nil {
			return nil, false, err
		}
	}
	if key, err = d.stringBytes(); err != nil {
		return nil, false, err
	}
	if err := d.expect(':'); err != nil {
		return nil, false, err
	}
	return key, true, nil
}

// stringBytes reads a JSON string and returns its unescaped bytes. Escapes
// and invalid UTF-8 decode as encoding/json decodes them: a lone surrogate
// or an invalid byte becomes U+FFFD. The result aliases data or d.str and
// is valid until the next call.
func (d *decoder) stringBytes() ([]byte, error) {
	d.ws()
	if d.i >= len(d.data) || d.data[d.i] != '"' {
		return nil, d.syntaxError("string")
	}
	start := d.i + 1
	plain := true
	for j := start; j < len(d.data); j++ {
		switch c := d.data[j]; {
		case c == '"':
			d.i = j + 1
			if plain {
				return d.data[start:j], nil
			}
			return d.unquote(d.data[start:j])
		case c == '\\':
			plain = false
			j++ // the escaped byte cannot end the string
		case c < 0x20:
			d.i = j
			return nil, d.syntaxError("string character")
		case c >= utf8.RuneSelf:
			plain = false
		}
	}
	d.i = len(d.data)
	return nil, d.syntaxError("closing quote")
}

func (d *decoder) unquote(s []byte) ([]byte, error) {
	out := d.str[:0]
	for r := 0; r < len(s); {
		c := s[r]
		switch {
		case c == '\\':
			r++
			switch s[r] {
			case '"', '\\', '/':
				out = append(out, s[r])
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				rr := hex4(s[r+1:])
				if rr < 0 {
					return nil, fmt.Errorf("invalid \\u escape in string")
				}
				r += 5
				if utf16.IsSurrogate(rr) {
					if r+1 < len(s) && s[r] == '\\' && s[r+1] == 'u' {
						if dec := utf16.DecodeRune(rr, hex4(s[r+2:])); dec != utf8.RuneError {
							out = utf8.AppendRune(out, dec)
							r += 6
							continue
						}
					}
					rr = utf8.RuneError
				}
				out = utf8.AppendRune(out, rr)
				continue
			default:
				return nil, fmt.Errorf("invalid escape \\%c in string", s[r])
			}
			r++
		case c < utf8.RuneSelf:
			out = append(out, c)
			r++
		default:
			rr, size := utf8.DecodeRune(s[r:])
			if rr == utf8.RuneError && size == 1 {
				out = utf8.AppendRune(out, utf8.RuneError)
			} else {
				out = append(out, s[r:r+size]...)
			}
			r += size
		}
	}
	d.str = out
	return out, nil
}

// hex4 decodes the four hex digits at the start of s, or returns -1.
func hex4(s []byte) rune {
	if len(s) < 4 {
		return -1
	}
	var r rune
	for _, c := range s[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// number reads a JSON number and returns its text, and whether it is an
// integer literal (no fraction, no exponent).
func (d *decoder) number() (lit []byte, integer bool, err error) {
	d.ws()
	data, start := d.data, d.i
	j := start
	if j < len(data) && data[j] == '-' {
		j++
	}
	digits := func() int {
		k := j
		for j < len(data) && '0' <= data[j] && data[j] <= '9' {
			j++
		}
		return j - k
	}
	switch {
	case j < len(data) && data[j] == '0':
		j++
	case digits() == 0:
		d.i = j
		return nil, false, d.syntaxError("number")
	}
	integer = true
	if j < len(data) && data[j] == '.' {
		integer = false
		j++
		if digits() == 0 {
			d.i = j
			return nil, false, d.syntaxError("digit")
		}
	}
	if j < len(data) && (data[j] == 'e' || data[j] == 'E') {
		integer = false
		j++
		if j < len(data) && (data[j] == '+' || data[j] == '-') {
			j++
		}
		if digits() == 0 {
			d.i = j
			return nil, false, d.syntaxError("digit")
		}
	}
	d.i = j
	return data[start:j], integer, nil
}

// integer reads an integer literal within [-limit-1, limit] (the negative
// side only when signed), the range strconv.ParseInt/ParseUint accept.
func (d *decoder) integer(signed bool, limit uint64) (neg bool, mag uint64, err error) {
	lit, isInt, err := d.number()
	if err != nil {
		return false, 0, err
	}
	if !isInt {
		return false, 0, fmt.Errorf("number %s is not an integer", lit)
	}
	if lit[0] == '-' {
		if !signed {
			return false, 0, fmt.Errorf("number %s is negative", lit)
		}
		neg, lit = true, lit[1:]
		limit++
	}
	for _, c := range lit {
		x := uint64(c - '0')
		if mag > (limit-x)/10 {
			return false, 0, fmt.Errorf("number %s overflows", lit)
		}
		mag = mag*10 + x
	}
	return neg, mag, nil
}

func (d *decoder) int(p *int) error {
	if d.null() {
		return nil
	}
	v, err := d.int64()
	if err == nil {
		*p = int(v)
	}
	return err
}

func (d *decoder) int64() (int64, error) {
	neg, mag, err := d.integer(true, 1<<63-1)
	if neg {
		return -int64(mag), err
	}
	return int64(mag), err
}

// endpoint reads one endpoint of edge i: an integer, never null.
func (d *decoder) endpoint(i int) (int64, error) {
	d.ws()
	if d.i >= len(d.data) || (d.data[d.i] != '-' && (d.data[d.i] < '0' || d.data[d.i] > '9')) {
		return 0, errEdgeShape(i)
	}
	return d.int64()
}

func (d *decoder) uint64(p *uint64) error {
	if d.null() {
		return nil
	}
	_, mag, err := d.integer(false, 1<<64-1)
	if err == nil {
		*p = mag
	}
	return err
}

func (d *decoder) float(p *float64) error {
	if d.null() {
		return nil
	}
	lit, _, err := d.number()
	if err != nil {
		return err
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return fmt.Errorf("number %s is out of range", lit)
	}
	*p = v
	return nil
}

func (d *decoder) string(p *string) error {
	if d.null() {
		return nil
	}
	s, err := d.stringBytes()
	if err == nil {
		*p = string(s)
	}
	return err
}

func (d *decoder) bool(p *bool) error {
	switch {
	case d.null():
	case d.literal("true"):
		*p = true
	case d.literal("false"):
		*p = false
	default:
		return d.syntaxError("true or false")
	}
	return nil
}
