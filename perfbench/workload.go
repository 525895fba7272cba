package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"xarch"
	"xarch/internal/datagen"
	"xarch/internal/xmltree"
)

// opKind is the endpoint a request drives.
type opKind int

const (
	opAdd     opKind = iota // POST /v1/add
	opVersion               // GET /v1/version/{n}
	opHistory               // GET /v1/history?selector=…&changes=1
	opSelect                // GET /v1/query?q=…
)

var opNames = [...]string{"add", "version", "history", "select"}

func (k opKind) String() string { return opNames[k] }

// request is one generated request. Version numbers in reads are drawn
// as fractions of the archive head seen when the request is sent, so the
// same seed gives the same draws whatever the commit timing.
type request struct {
	ID   int64
	Kind opKind
	Due  time.Duration // open loop: due time, as an offset from the load start
	Body []byte        // add: the document
	N    int           // version: a fixed version to read; 0 draws one
	Sel  string        // history: the selector; select: the keyed path
	Wide bool          // select: the archive-wide "changed K.." form
	U    float64       // uniform draws in [0, 1)
	U2   float64
}

// versionFor is the version a read of head versions asks for: uniform
// over 1..head.
func (r *request) versionFor(head int) int { return 1 + int(r.U*float64(head)) }

// exprFor is the select expression sent when the archive has head
// versions: a keyed path ANDed with a changed span inside 1..head, or an
// archive-wide "changed K.." with K one to three versions below the head.
func (r *request) exprFor(head int) string {
	if r.Wide {
		return fmt.Sprintf("changed %d..", max(1, head-1-int(r.U*3)))
	}
	a := 1 + int(r.U*float64(head))
	b := a + int(r.U2*float64(head-a+1))
	return fmt.Sprintf("%s AND changed %d..%d", r.Sel, a, min(b, head))
}

// plan is everything a workload run needs, generated from the seed
// before any timing starts. The program sees only the documents and
// requests.
type plan struct {
	name       string
	spec       *xarch.KeySpec
	setupDocs  [][]byte // archived during set-up, as versions 1..len(setupDocs)
	setupBatch int      // documents per AddBatch during set-up

	// Closed loop (ingest): the releases one episode posts, in order.
	// Every episode starts from the same set-up archive.
	episode [][]byte

	// Open loop (read, service): the schedule and its connections.
	reqs  []*request
	conns int

	// Post-run probes of the extmem read counters.
	probeSel  string
	probeExpr string
}

// Workload sizes.
const (
	omimRecords = 300 // records per OMIM-like release (≈450 KB)

	ingestSetupReleases = 3
	ingestEpisode       = 10 // releases one ingest episode posts

	readReleases = 20
	readRate     = 30.0

	universe         = 32 // records in the service workload's database
	serviceSetupDocs = 300
	serviceRate      = 60.0
	serviceAddShare  = 0.25
)

// omimReleases generates n successive OMIM-like releases. The §5.3
// change ratios are raised so every release changes something: ≈1 %
// inserts, ≈1 % modifications and ≈0.2 % deletions.
func omimReleases(seed int64, n int) ([][]byte, []string) {
	g := datagen.NewOMIM(datagen.OMIMConfig{
		Seed:       seed,
		Records:    omimRecords,
		DeleteFrac: 0.002,
		InsertFrac: 0.01,
		ModifyFrac: 0.01,
	})
	var docs [][]byte
	seen := map[string]bool{}
	var nums []string
	for i := 0; i < n; i++ {
		doc := g.Next()
		var b bytes.Buffer
		if err := doc.Write(&b, xmltree.WriteOptions{}); err != nil {
			panic(err) // a bytes.Buffer write cannot fail
		}
		docs = append(docs, b.Bytes())
		for _, rec := range doc.ChildrenNamed("Record") {
			if num := rec.Child("Num"); num != nil && len(num.Children) > 0 && !seen[num.Children[0].Data] {
				seen[num.Children[0].Data] = true
				nums = append(nums, num.Children[0].Data)
			}
		}
	}
	return docs, nums
}

// serviceSpec is the key specification of xarchload's documents.
const serviceSpec = `(/, (db, {}))
(/db, (rec, {id}))
(/db/rec, (v, {}))
`

// model is the service workload's database: a fixed universe of records
// with one counter each. Every write bumps one record and posts the
// whole database, as xarchload's writers do.
type model struct{ vals [universe]int }

func (m *model) next(rng *rand.Rand) []byte {
	m.vals[rng.IntN(universe)]++
	var b bytes.Buffer
	b.WriteString("<db>")
	for id, v := range m.vals {
		fmt.Fprintf(&b, "<rec><id>r%02d</id><v>%d</v></rec>", id, v)
	}
	b.WriteString("</db>")
	return b.Bytes()
}

func recSelector(id int) string { return fmt.Sprintf("/db/rec[id=r%02d]", id) }

func omimSelector(num string) string { return "/ROOT/Record[Num=" + num + "]" }

// newPlan generates a workload's inputs from its seed.
func newPlan(name string, seed int64, seconds float64) (*plan, error) {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5eed))
	switch name {
	case "ingest":
		docs, nums := omimReleases(seed, ingestSetupReleases+ingestEpisode)
		return &plan{
			name:       name,
			spec:       datagen.OMIMSpec(),
			setupDocs:  docs[:ingestSetupReleases],
			setupBatch: 1,
			episode:    docs[ingestSetupReleases:],
			conns:      1,
			probeSel:   omimSelector(nums[0]),
			probeExpr:  omimSelector(nums[0]) + " AND changed 1..",
		}, nil
	case "read":
		docs, nums := omimReleases(seed, readReleases)
		p := &plan{
			name:       name,
			spec:       datagen.OMIMSpec(),
			setupDocs:  docs,
			setupBatch: 1,
			conns:      2,
		}
		for i := range int(math.Ceil(readRate * seconds)) {
			r := &request{ID: int64(i + 1), Due: due(i, readRate), U: rng.Float64(), U2: rng.Float64()}
			switch rng.IntN(3) {
			case 0:
				r.Kind = opVersion
			case 1:
				r.Kind, r.Sel = opHistory, omimSelector(nums[rng.IntN(len(nums))])
			default:
				r.Kind, r.Sel, r.Wide = opSelect, omimSelector(nums[rng.IntN(len(nums))]), rng.IntN(2) == 0
			}
			p.reqs = append(p.reqs, r)
		}
		p.probeSel, p.probeExpr = omimSelector(nums[0]), omimSelector(nums[0])+" AND changed 1.."
		return p, nil
	case "service":
		spec, err := xarch.ParseKeySpec(serviceSpec)
		if err != nil {
			return nil, err
		}
		var m model
		for i := range m.vals {
			m.vals[i] = 1
		}
		p := &plan{
			name:       name,
			spec:       spec,
			setupBatch: 16,
			conns:      2,
			probeSel:   recSelector(0),
			probeExpr:  recSelector(0) + " AND changed 1..",
		}
		for range serviceSetupDocs {
			p.setupDocs = append(p.setupDocs, m.next(rng))
		}
		for i := range int(math.Ceil(serviceRate * seconds)) {
			r := &request{ID: int64(i + 1), Due: due(i, serviceRate), U: rng.Float64(), U2: rng.Float64()}
			switch x := rng.Float64(); {
			case x < serviceAddShare:
				r.Kind, r.Body = opAdd, m.next(rng)
			case x < serviceAddShare+(1-serviceAddShare)/3:
				r.Kind = opVersion
			case x < serviceAddShare+2*(1-serviceAddShare)/3:
				r.Kind, r.Sel = opHistory, recSelector(rng.IntN(universe))
			default:
				r.Kind, r.Sel, r.Wide = opSelect, recSelector(rng.IntN(universe)), rng.IntN(2) == 0
			}
			p.reqs = append(p.reqs, r)
		}
		return p, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want ingest, read or service)", name)
}

// due is the i-th due time of an evenly spaced schedule at rate per second.
func due(i int, rate float64) time.Duration {
	return time.Duration(float64(i) / rate * float64(time.Second))
}
