package aggregate

import "byzopt/internal/vecmath"

// pairwiseDistSqInto fills d2 — an n x n matrix the caller owns, typically
// Scratch.distMatrix — with the squared Euclidean distances between
// gradients, the O(n²·d) kernel shared by the Krum family and Bulyan. Every
// entry including the diagonal is overwritten, so stale scratch contents
// cannot leak. Dimensions must have been validated by the caller.
func pairwiseDistSqInto(d2 [][]float64, grads [][]float64) {
	for i := range grads {
		pairwiseFillRow(d2, grads, i)
	}
}

// pairwiseFillRow computes row i of the distance matrix: entries (i, j) for
// j > i, mirrored to (j, i), plus the zero diagonal entry. Columns go four
// at a time while four are left (distSq4), the rest through DistSqKernel;
// both add a pair's terms in the same order, so which one computed an entry
// cannot be read from it.
func pairwiseFillRow(d2 [][]float64, grads [][]float64, i int) {
	d2[i][i] = 0
	gi, di := grads[i], d2[i]
	j := i + 1
	for ; j+4 <= len(grads); j += 4 {
		s0, s1, s2, s3 := distSq4(gi, grads[j], grads[j+1], grads[j+2], grads[j+3])
		di[j], di[j+1], di[j+2], di[j+3] = s0, s1, s2, s3
		d2[j][i], d2[j+1][i], d2[j+2][i], d2[j+3][i] = s0, s1, s2, s3
	}
	for ; j < len(grads); j++ {
		s := vecmath.DistSqKernel(gi, grads[j])
		di[j] = s
		d2[j][i] = s
	}
}

// distSq4 is vecmath.DistSqKernel from a to four vectors in one pass over the
// coordinates: each distance is its own accumulator taking its (a-b)² terms
// in ascending index order, bit for bit DistSqKernel's sum, and the four add
// chains overlap where one alone waits on its previous add. Dimensions must
// already be validated; a shorter b panics.
func distSq4(a, b0, b1, b2, b3 []float64) (s0, s1, s2, s3 float64) {
	b0, b1, b2, b3 = b0[:len(a)], b1[:len(a)], b2[:len(a)], b3[:len(a)]
	for c, v := range a {
		e0 := v - b0[c]
		s0 += e0 * e0
		e1 := v - b1[c]
		s1 += e1 * e1
		e2 := v - b2[c]
		s2 += e2 * e2
		e3 := v - b3[c]
		s3 += e3 * e3
	}
	return s0, s1, s2, s3
}
