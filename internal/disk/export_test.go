package disk

// AddressMap returns the cumulative byte and cylinder counts at the end of
// each zone, as New computed them: what the tests outside the package build
// their reference address translation from.
func (g *Geometry) AddressMap() (cumBytes []float64, cumCyl []int) {
	return g.cumBytes, g.cumCyl
}
