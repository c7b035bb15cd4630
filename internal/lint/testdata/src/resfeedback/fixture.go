// Package resfeedback seeds one-Begin-lifetime violations for the
// resfeedback analyzer, against the real compress API: Recon, Residual and
// EncodeRange results alias state the next Begin re-plans in place, and
// residuals are the codec's accumulator, not the caller's.
package resfeedback

import "malt/internal/compress"

func staleRecon(st *compress.State, a, b []float64) float64 {
	st.Begin(1, a, 0.5)
	recon := st.Recon()
	st.Begin(2, b, 0.5)
	return recon[0] // want `read after the Begin`
}

func staleResidual(st *compress.State, a []float64) float64 {
	st.Begin(1, a, 0.5)
	r := st.Residual(1)
	st.Begin(1, a, 0.5)
	return r[0] // want `read after the Begin`
}

func staleFrame(st *compress.State, a []float64, buf []byte) []byte {
	st.Begin(1, a, 0.5)
	frame := st.EncodeRange(buf[:0], 0, len(a))
	st.Begin(2, a, 0.5)
	return frame // want `read after the Begin`
}

// BeginGroup re-plans exactly as Begin does.
func staleAcrossGroups(st *compress.State, peers []int, ratios, a []float64) float64 {
	var recon []float64
	for _, g := range st.Groups(peers, ratios) {
		st.BeginGroup(g, a)
		if recon != nil { // want `read after the Begin`
			return recon[0] // want `read after the Begin`
		}
		recon = st.Recon()
	}
	return 0
}

// The per-peer scatter loop's back edge: recon obtained for peer N is
// still aliased when peer N+1's Begin re-plans; only the second loop-body
// walk sees the collision.
func backEdgeStale(st *compress.State, peers []int, a []float64) float64 {
	sum := 0.0
	var recon []float64
	for _, p := range peers {
		st.Begin(p, a, 0.5)
		if recon != nil { // want `read after the Begin`
			sum += recon[0] // want `read after the Begin`
		}
		recon = st.Recon()
	}
	return sum
}

func mutateResidual(st *compress.State, a []float64) {
	st.Begin(1, a, 0.5)
	r := st.Residual(1)
	r[0] = 0 // want `mutating it breaks conservation`
}

func decayResidual(st *compress.State, a []float64) {
	st.Begin(1, a, 0.5)
	r := st.Residual(1)
	r[3]++ // want `mutating it breaks conservation`
}

// ---- negative cases: none of these may be flagged ----

// Using scratch inside its Begin window is the intended pattern.
func usedInWindow(st *compress.State, a []float64) float64 {
	st.Begin(1, a, 0.5)
	recon := st.Recon()
	return recon[0]
}

// Copying out before the next Begin is the blessed escape.
func copiedOut(st *compress.State, a, b []float64) float64 {
	st.Begin(1, a, 0.5)
	keep := append([]float64(nil), st.Recon()...)
	st.Begin(2, b, 0.5)
	return keep[0]
}

// Re-pointing the name at the fresh plan starts a new lifetime.
func repointed(st *compress.State, a, b []float64) float64 {
	st.Begin(1, a, 0.5)
	recon := st.Recon()
	_ = recon
	st.Begin(2, b, 0.5)
	recon = st.Recon()
	return recon[0]
}

// Reading a residual (without writing it) inside the window is fine.
func readResidual(st *compress.State, a []float64) float64 {
	st.Begin(1, a, 0.5)
	r := st.Residual(1)
	return r[0]
}

// Re-obtaining scratch every iteration never meets the back edge.
func freshPerPeer(st *compress.State, peers []int, a []float64) float64 {
	sum := 0.0
	for _, p := range peers {
		st.Begin(p, a, 0.5)
		recon := st.Recon()
		sum += recon[0]
	}
	return sum
}
