// Package zoning implements the zone dataset of Section 5.1.2: a set of zone
// geometries, each assigning a zone category (city, rural, summer house) to
// an area, and the spatial join that annotates every network segment with a
// zone type. Segments touching more than one zone type get the derived
// "ambiguous" type. Points covered by no polygon are rural, mirroring the
// Danish zoning map where rural is the default land use.
package zoning

import "pathhist/internal/network"

// Point is a planar point in world meters.
type Point struct {
	X, Y float64
}

// Polygon is a simple (non-self-intersecting) polygon with a zone category.
type Polygon struct {
	Pts  []Point
	Type network.Zone
}

// Contains reports whether p lies inside the polygon, using the even-odd
// ray-casting rule. Points exactly on an edge may be classified either way;
// the join samples multiple points per segment so this does not matter.
func (pg *Polygon) Contains(p Point) bool {
	in := false
	n := len(pg.Pts)
	for i, j := 0, n-1; i < n; j, i = i, i+1 {
		a, b := pg.Pts[i], pg.Pts[j]
		if (a.Y > p.Y) != (b.Y > p.Y) {
			xInt := a.X + (p.Y-a.Y)/(b.Y-a.Y)*(b.X-a.X)
			if p.X < xInt {
				in = !in
			}
		}
	}
	return in
}

// Map is a collection of zone polygons.
type Map struct {
	polys []Polygon
}

// NewMap returns a Map over the given polygons.
func NewMap(polys []Polygon) *Map { return &Map{polys: polys} }

// TypeAt returns the zone type at a single point: the type of the covering
// polygon(s) if they agree, ambiguous if they disagree, rural if none cover.
func (m *Map) TypeAt(p Point) network.Zone {
	found := false
	var t network.Zone
	for i := range m.polys {
		if m.polys[i].Contains(p) {
			if found && m.polys[i].Type != t {
				return network.ZoneAmbiguous
			}
			found, t = true, m.polys[i].Type
		}
	}
	if !found {
		return network.ZoneRural
	}
	return t
}

// Assign performs the spatial join of Section 5.1.2: every edge of g is
// assigned the zone type covering it, sampling both endpoints and the
// midpoint; edges located in more than one zone type become ambiguous.
func (m *Map) Assign(g *network.Graph) {
	for i := 0; i < g.NumEdges(); i++ {
		id := network.EdgeID(i)
		e := g.Edge(id)
		a := g.Vertex(e.From)
		b := g.Vertex(e.To)
		samples := [3]Point{
			{a.X, a.Y},
			{(a.X + b.X) / 2, (a.Y + b.Y) / 2},
			{b.X, b.Y},
		}
		z := m.TypeAt(samples[0])
		for _, p := range samples[1:] {
			if t := m.TypeAt(p); t != z {
				z = network.ZoneAmbiguous
				break
			}
		}
		g.SetZone(id, z)
	}
}

// rectPolygon converts a rectangle to a 4-vertex polygon.
func rectPolygon(r network.Rect, t network.Zone) Polygon {
	return Polygon{
		Pts: []Point{
			{r.MinX, r.MinY}, {r.MaxX, r.MinY}, {r.MaxX, r.MaxY}, {r.MinX, r.MaxY},
		},
		Type: t,
	}
}

// FromGenResult builds a zoning map from the built-up footprints of the
// synthetic network generator. City polygons are inset by cityInset meters so
// that the outermost ring of each city grid straddles the city boundary,
// yielding a realistic share of ambiguous segments (as the overlap of zone
// geometries does in the Danish dataset).
func FromGenResult(res *network.GenResult, cityInset float64) *Map {
	var polys []Polygon
	for _, r := range res.CityRects {
		polys = append(polys, rectPolygon(r.Expand(-cityInset), network.ZoneCity))
	}
	for _, r := range res.SummerRects {
		polys = append(polys, rectPolygon(r, network.ZoneSummerHouse))
	}
	return NewMap(polys)
}
