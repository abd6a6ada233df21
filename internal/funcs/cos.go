package funcs

import "math"

// cosPoly holds math.Cos's two polynomials in zz = z², highest power
// first: row 0 the cosine's, row 1 the sine's.
var cosPoly = [2][6]float64{
	{
		-1.13585365213876817300e-11, // 0xbda8fa49a0861a9b
		2.08757008419747316778e-9,   // 0x3e21ee9d7b4e3f05
		-2.75573141792967388112e-7,  // 0xbe927e4f7eac4bc6
		2.48015872888517045348e-5,   // 0x3efa01a019c844f5
		-1.38888888888730564116e-3,  // 0xbf56c16c16c14f91
		4.16666666666665929218e-2,   // 0x3fa555555555554b
	},
	{
		1.58962301576546568060e-10, // 0x3de5d8fd1fd19ccd
		-2.50507477628578072866e-8, // 0xbe5ae5e5a9291f5d
		2.75573136213857245213e-6,  // 0x3ec71de3567d48a1
		-1.98412698295895385996e-4, // 0xbf2a01a019bfdf03
		8.33333333332211858878e-3,  // 0x3f8111111110f7d0
		-1.66666666666666307295e-1, // 0xbfc5555555555548
	},
}

// cos returns math.Cos(x), bit for bit, for the objectives' inner loops.
//
// For finite |x| < 2²⁹ it runs math.Cos's own algorithm (Cephes: a
// three-part Cody–Waite reduction by π/4 and the same sin and cos
// polynomials), written so the hot path has no data-dependent branch:
// the octant index is converted through int64, exact under that bound,
// instead of the branchy unsigned conversion, and the polynomial and the
// sign are picked by the octant's bits instead of by branches. Every
// other argument — ±Inf, NaN and |x| ≥ 2²⁹, where math.Cos switches to
// Payne–Hanek reduction — is handed to math.Cos. TestCosMatchesMathCos
// checks the equality.
func cos(x float64) float64 {
	const (
		pi4a = 7.85398125648498535156e-1  // 0x3fe921fb40000000, π/4 split into three parts
		pi4b = 3.77489470793079817668e-8  // 0x3e64442d00000000
		pi4c = 2.69515142907905952645e-15 // 0x3ce8469898cc5170
	)
	a := math.Abs(x)
	if !(a < 1<<29) {
		return math.Cos(x)
	}
	j := int64(a * (4 / math.Pi)) // integer part of a/(π/4)
	j += j & 1                    // map zeros to origin: round j up to even
	y := float64(j)               // math.Cos's float64(j)+1 for odd j: both exact
	z := ((a - y*pi4a) - y*pi4b) - y*pi4c

	// j&7 ∈ {0, 2, 4, 6}. Octants 2 and 6 take the sine polynomial,
	// z + z·zz·p, the others the cosine's, 1 − zz/2 + zz·zz·p; both are
	// u + v·p, with u and v picked by mask. Octants 2 and 4 negate.
	o := uint64(j)
	sin := o >> 1 & 1
	zz := z * z
	c := &cosPoly[sin]
	p := (((((c[0]*zz)+c[1])*zz+c[2])*zz+c[3])*zz+c[4])*zz + c[5]
	m := -sin
	u := math.Float64frombits(math.Float64bits(z)&m | math.Float64bits(1.0-0.5*zz)&^m)
	v := math.Float64frombits(math.Float64bits(z*zz)&m | math.Float64bits(zz*zz)&^m)
	sign := (o>>1 ^ o>>2) & 1
	return math.Float64frombits(math.Float64bits(u+v*p) ^ sign<<63)
}
