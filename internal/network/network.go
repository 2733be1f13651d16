// Package network models the spatial road network G = (V, E, F) of the
// paper (Section 2.2): a directed graph whose edges represent one driving
// direction of a road segment, annotated by the function set
// F : E -> Cat x Z x SL x L (road category, zone type, speed limit, length).
//
// The package also provides the speed-limit travel-time fallback estimateTT
// (Table 1), time-weighted shortest paths used by the trip simulator, and a
// deterministic synthetic generator that substitutes for the OpenStreetMap
// extract used in the paper (see DESIGN.md §1).
package network

import (
	"fmt"
	"math"
)

// VertexID identifies a graph vertex.
type VertexID int32

// EdgeID identifies a directed edge (one direction of a road segment).
type EdgeID int32

// NoEdge is the invalid edge sentinel.
const NoEdge EdgeID = -1

// Category is an OSM-style road category. The paper's map has 17 categories;
// the same 17 are modelled here.
type Category uint8

// The 17 road categories (Section 5.1.1).
const (
	Motorway Category = iota
	Trunk
	Primary
	Secondary
	Tertiary
	Unclassified
	Residential
	MotorwayLink
	TrunkLink
	PrimaryLink
	SecondaryLink
	TertiaryLink
	LivingStreet
	Service
	Pedestrian
	Track
	Road
	NumCategories // number of categories, not a category itself
)

var categoryNames = [NumCategories]string{
	"motorway", "trunk", "primary", "secondary", "tertiary", "unclassified",
	"residential", "motorway_link", "trunk_link", "primary_link",
	"secondary_link", "tertiary_link", "living_street", "service",
	"pedestrian", "track", "road",
}

// String returns the OSM-style name of the category.
func (c Category) String() string {
	if int(c) < len(categoryNames) {
		return categoryNames[c]
	}
	return fmt.Sprintf("category(%d)", uint8(c))
}

// IsMainRoad reports whether the category is a "main road" in the sense of
// the πMDM partitioning method: motorways and other major roads connecting
// cities (Section 6.1).
func (c Category) IsMainRoad() bool {
	switch c {
	case Motorway, Trunk, Primary, MotorwayLink, TrunkLink:
		return true
	}
	return false
}

// Zone is the zone type of the area a segment lies in (Section 5.1.2).
type Zone uint8

// The three zoning-map categories plus the derived ambiguous type.
const (
	ZoneCity Zone = iota
	ZoneRural
	ZoneSummerHouse
	ZoneAmbiguous
	NumZones
)

var zoneNames = [NumZones]string{"city", "rural", "summer_house", "ambiguous"}

// String returns the zone-type name.
func (z Zone) String() string {
	if int(z) < len(zoneNames) {
		return zoneNames[z]
	}
	return fmt.Sprintf("zone(%d)", uint8(z))
}

// Vertex is a graph vertex with planar coordinates in meters.
type Vertex struct {
	X, Y float64
}

// Edge is a directed edge and its F-annotations.
type Edge struct {
	From, To   VertexID
	Cat        Category
	Zone       Zone
	SpeedLimit float64 // km/h; 0 means unknown (median fallback applies)
	Length     float64 // meters
	Name       string  // optional human-readable label ("A".."F" in examples)
}

// Graph is the spatial network. The zero value is unusable; construct with
// New and add vertices/edges, or use Generate.
type Graph struct {
	vertices []Vertex
	edges    []Edge
	out      [][]EdgeID // outgoing edges per vertex
	in       [][]EdgeID // incoming edges per vertex

	medianSL   [NumCategories]float64 // per-category median of known limits
	medianOnce bool
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// AddVertex appends a vertex and returns its id.
func (g *Graph) AddVertex(x, y float64) VertexID {
	g.vertices = append(g.vertices, Vertex{X: x, Y: y})
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return VertexID(len(g.vertices) - 1)
}

// AddEdge appends a directed edge and returns its id. If the edge's Length is
// zero it is derived from the vertex coordinates.
func (g *Graph) AddEdge(e Edge) EdgeID {
	if e.From < 0 || int(e.From) >= len(g.vertices) || e.To < 0 || int(e.To) >= len(g.vertices) {
		panic(fmt.Sprintf("network: AddEdge with out-of-range endpoint %d->%d", e.From, e.To))
	}
	if e.Length == 0 {
		e.Length = g.Distance(e.From, e.To)
	}
	id := EdgeID(len(g.edges))
	g.edges = append(g.edges, e)
	g.out[e.From] = append(g.out[e.From], id)
	g.in[e.To] = append(g.in[e.To], id)
	g.medianOnce = false
	return id
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return len(g.vertices) }

// NumEdges returns |E| (directed edges).
func (g *Graph) NumEdges() int { return len(g.edges) }

// Vertex returns the vertex with the given id.
func (g *Graph) Vertex(v VertexID) Vertex { return g.vertices[v] }

// Edge returns the edge with the given id.
func (g *Graph) Edge(e EdgeID) Edge { return g.edges[e] }

// SetZone overwrites the zone annotation of an edge (used by the zoning join).
func (g *Graph) SetZone(e EdgeID, z Zone) { g.edges[e].Zone = z }

// Out returns the outgoing edge ids of v. The slice must not be modified.
func (g *Graph) Out(v VertexID) []EdgeID { return g.out[v] }

// In returns the incoming edge ids of v. The slice must not be modified.
func (g *Graph) In(v VertexID) []EdgeID { return g.in[v] }

// Distance returns the Euclidean distance between two vertices in meters.
func (g *Graph) Distance(a, b VertexID) float64 {
	va, vb := g.vertices[a], g.vertices[b]
	return math.Hypot(va.X-vb.X, va.Y-vb.Y)
}

// MedianSpeedLimit returns the median of all known speed limits of the
// category, the fallback the paper uses when a segment's limit is unknown
// (Section 5.1.1). If the category has no known limits at all, a global
// default of 50 km/h is returned.
func (g *Graph) MedianSpeedLimit(c Category) float64 {
	if !g.medianOnce {
		g.computeMedians()
	}
	if m := g.medianSL[c]; m > 0 {
		return m
	}
	return 50
}

func (g *Graph) computeMedians() {
	var per [NumCategories][]float64
	for i := range g.edges {
		e := &g.edges[i]
		if e.SpeedLimit > 0 {
			per[e.Cat] = append(per[e.Cat], e.SpeedLimit)
		}
	}
	for c := range per {
		g.medianSL[c] = median(per[c])
	}
	g.medianOnce = true
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	// Insertion sort into a copy: category lists are small and this avoids
	// importing sort for a single call site.
	s := append([]float64(nil), xs...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// SpeedLimitOf returns the effective speed limit of e in km/h, applying the
// per-category median fallback for unknown limits.
func (g *Graph) SpeedLimitOf(e EdgeID) float64 {
	ed := &g.edges[e]
	if ed.SpeedLimit > 0 {
		return ed.SpeedLimit
	}
	return g.MedianSpeedLimit(ed.Cat)
}

// EstimateTT returns the traversal time of e in seconds if the segment is
// traversed at its (effective) speed limit:
//
//	estimateTT(e) = 3.6 * F(e).l / F(e).sl
//
// This is the data-free fallback of Section 2.2 / Table 1.
func (g *Graph) EstimateTT(e EdgeID) float64 {
	sl := g.SpeedLimitOf(e)
	return 3.6 * g.edges[e].Length / sl
}

// EstimateTTSeconds returns EstimateTT rounded to whole seconds, at least 1,
// the value fed into histograms by the Procedure 5 fallback.
func (g *Graph) EstimateTTSeconds(e EdgeID) int {
	s := int(math.Round(g.EstimateTT(e)))
	if s < 1 {
		s = 1
	}
	return s
}

// Path is a traversable sequence of directed edges P = <e0, ..., el-1>.
type Path []EdgeID

// Sub returns the sub-path P[i, j) (Section 2.2). The result aliases P.
func (p Path) Sub(i, j int) Path { return p[i:j] }

// LengthMeters returns the summed segment lengths of the path.
func (g *Graph) PathLength(p Path) float64 {
	var sum float64
	for _, e := range p {
		sum += g.edges[e].Length
	}
	return sum
}

// IsTraversable reports whether consecutive edges of p share endpoints
// (e_i.To == e_{i+1}.From).
func (g *Graph) IsTraversable(p Path) bool {
	for i := 1; i < len(p); i++ {
		if g.edges[p[i-1]].To != g.edges[p[i]].From {
			return false
		}
	}
	return true
}

// EstimatePathTT returns the speed-limit travel time of a whole path in
// seconds (the "speed limits only" baseline of Section 6.1).
func (g *Graph) EstimatePathTT(p Path) float64 {
	var sum float64
	for _, e := range p {
		sum += g.EstimateTT(e)
	}
	return sum
}

// Turn classifies the turning movement between two consecutive edges.
type Turn uint8

// Turning movements at intersections, used by the trip simulator to model
// the intersection costs that motivate path-based estimation (Section 1).
const (
	TurnStraight Turn = iota
	TurnRight
	TurnLeft
	TurnUTurn
)

// TurnBetween classifies the movement from edge a onto edge b using the
// signed angle between their direction vectors.
func (g *Graph) TurnBetween(a, b EdgeID) Turn {
	ea, eb := g.edges[a], g.edges[b]
	ax := g.vertices[ea.To].X - g.vertices[ea.From].X
	ay := g.vertices[ea.To].Y - g.vertices[ea.From].Y
	bx := g.vertices[eb.To].X - g.vertices[eb.From].X
	by := g.vertices[eb.To].Y - g.vertices[eb.From].Y
	// Angle of b relative to a in (-pi, pi].
	ang := math.Atan2(ax*by-ay*bx, ax*bx+ay*by)
	deg := ang * 180 / math.Pi
	switch {
	case deg > 135 || deg < -135:
		return TurnUTurn
	case deg > 45:
		return TurnLeft
	case deg < -45:
		return TurnRight
	default:
		return TurnStraight
	}
}
