//! Precision-typed forward plan: the engine's weights, frozen into the
//! scalar they will execute in.
//!
//! [`Engine`](crate::Engine) scores through a [`ForwardPlan`] rather
//! than reading `Matrix` weights out of the snapshot on every request.
//! A plan is the forward's shape ([`Arch`]: layer counts, heads,
//! slopes, γ) plus every weight in `AmsModel::param_list` order — the
//! order the one generic `AmsModel::forward` reads its parameters in —
//! the company graph's edge list and the slave-column selection. The plan
//! for `E = f64` holds exact copies of the snapshot (narrowing is the
//! identity), so the f64 path stays bit-for-bit equal to training-side
//! `AmsModel::predict`. The plan for `E = f32` is the quantized model:
//! every weight and constant rounded once, at load time, to the nearest
//! f32 — the serving-side half of the mixed-precision path described in
//! DESIGN.md §14.
//!
//! The f32 plan also has a standalone binary serialization
//! ([`ForwardPlan::to_bytes`] / [`ForwardPlan::from_bytes`]) so a
//! quantized model can be shipped without the f64 artifact. Decoding is
//! length-checked at every field: a truncated or corrupt byte string
//! returns `Err`, never panics, and never allocates more memory than
//! the input could justify.

use crate::artifact::ModelArtifact;
use ams_core::{edge_list, Arch, GatHead, GatSpec};
use ams_tensor::runtime::{EdgeList, Element};
use ams_tensor::Matrix;

/// Header magic for serialized f32 plans.
pub const PLAN32_MAGIC: &[u8; 8] = b"AMSPLN32";
/// Layout version embedded after the magic; bump on breaking change.
pub const PLAN32_VERSION: u8 = 1;

/// An owned row-major `rows × cols` buffer of one scalar type — the
/// plan-side analogue of [`Matrix`], generic over the element.
#[derive(Debug, Clone, PartialEq)]
pub struct Plane<E: Element> {
    rows: usize,
    cols: usize,
    data: Vec<E>,
}

impl<E: Element> Plane<E> {
    /// Wrap an existing buffer (`data.len()` must equal `rows * cols`).
    pub fn from_vec(rows: usize, cols: usize, data: Vec<E>) -> Self {
        assert_eq!(data.len(), rows * cols, "plane data does not match {rows}x{cols}");
        Self { rows, cols, data }
    }

    /// Narrow (or copy, for `E = f64`) a matrix into a plane.
    pub fn from_matrix(m: &Matrix) -> Self {
        let data = m.as_slice().iter().map(|&v| E::from_f64(v)).collect();
        Self { rows: m.rows(), cols: m.cols(), data }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn as_slice(&self) -> &[E] {
        &self.data
    }

    pub fn as_mut_slice(&mut self) -> &mut [E] {
        &mut self.data
    }

    /// A borrowed, `Copy` view of the whole plane.
    pub fn view(&self) -> PlaneRef<'_, E> {
        PlaneRef { rows: self.rows, cols: self.cols, data: &self.data }
    }

    /// Surrender the backing buffer (for returning it to a workspace).
    pub fn into_vec(self) -> Vec<E> {
        self.data
    }
}

impl Plane<f64> {
    /// Reinterpret an f64 plane as a [`Matrix`] without copying.
    pub fn into_matrix(self) -> Matrix {
        Matrix::from_vec(self.rows, self.cols, self.data)
    }
}

/// A borrowed view of a plane (or of a [`Matrix`], for `E = f64`).
#[derive(Debug, Clone, Copy)]
pub struct PlaneRef<'a, E: Element> {
    pub rows: usize,
    pub cols: usize,
    pub data: &'a [E],
}

impl<'a, E: Element> PlaneRef<'a, E> {
    /// One row as a slice.
    pub fn row(&self, r: usize) -> &'a [E] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }
}

impl<'a> PlaneRef<'a, f64> {
    /// View a matrix as an f64 plane.
    pub fn of_matrix(m: &'a Matrix) -> Self {
        Self { rows: m.rows(), cols: m.cols(), data: m.as_slice() }
    }
}

/// Every parameter the batch forward pass reads, in the scalar it will
/// execute in. Built once per engine (per precision) at load time.
#[derive(Debug, Clone)]
pub struct ForwardPlan<E: Element> {
    /// Full feature width `d` the model consumes.
    pub width: usize,
    /// Companies (graph nodes) `n`.
    pub companies: usize,
    /// The forward's shape, its constants narrowed to `E`.
    pub arch: Arch<E>,
    /// The trained weights in `AmsModel::param_list` order: node
    /// transform, GAT heads, generator, β_c.
    pub weights: Vec<Plane<E>>,
    /// The company graph's edges, which graph attention walks; derived
    /// once, at load time (serialized f32 plans carry them as a dense
    /// 0/1 mask).
    pub edges: EdgeList,
    /// 0/1 projection from full feature space to slave columns
    /// (`d×m`), `None` when the slave model uses every column.
    pub selection: Option<Plane<E>>,
}

impl<E: Element> ForwardPlan<E> {
    /// Freeze an artifact's weights into `E`. For `E = f64` this is an
    /// exact copy; for `E = f32` it is the quantization step.
    pub fn from_artifact(artifact: &ModelArtifact) -> Self {
        let snap = &artifact.snapshot;
        let d = artifact.feature_width();
        Self {
            width: d,
            companies: artifact.num_companies(),
            arch: Arch::new(snap, E::from_f64),
            weights: snap.params().into_iter().map(|(_, w, _)| Plane::from_matrix(w)).collect(),
            edges: edge_list(&artifact.graph),
            selection: snap.config.slave_selection(d).as_ref().map(Plane::from_matrix),
        }
    }
}

// ---- f32 plan serialization -------------------------------------------
//
// Layout (all integers little-endian):
//   magic[8] | version u8 | residual u8 | has_selection u8
//   width u32 | companies u32 | nt u32 | gat u32 | gen u32
//   gamma f32 | gamma_c f32
//   nt × (plane w, plane b)
//   gat × (heads u32, leaky_slope f32, heads × (plane w, a_left, a_right))
//   gen × (plane w, plane b)
//   plane beta_cᵀ (1×m) | plane mask | [plane selection]
// where plane = rows u32 | cols u32 | rows·cols × f32. The planes are
// the weights in order, except that β_c (m×1) is written as its
// transpose: the same values under a 1×m header.

impl ForwardPlan<f32> {
    /// Serialize the quantized plan to a standalone byte string.
    pub fn to_bytes(&self) -> Vec<u8> {
        let arch = &self.arch;
        let mut out = Vec::new();
        out.extend_from_slice(PLAN32_MAGIC);
        out.push(PLAN32_VERSION);
        out.push(arch.residual as u8);
        out.push(self.selection.is_some() as u8);
        for v in [self.width, self.companies, arch.nt, arch.gat.len(), arch.gen] {
            out.extend_from_slice(&(v as u32).to_le_bytes());
        }
        out.extend_from_slice(&arch.gamma.to_le_bytes());
        out.extend_from_slice(&arch.gamma_c.to_le_bytes());
        let mut weights = self.weights.iter();
        for w in weights.by_ref().take(2 * arch.nt) {
            write_plane(&mut out, w.view());
        }
        for layer in &arch.gat {
            out.extend_from_slice(&(layer.heads as u32).to_le_bytes());
            out.extend_from_slice(&layer.leaky_slope.to_le_bytes());
            for w in weights.by_ref().take(GatHead::N_PARAMS * layer.heads) {
                write_plane(&mut out, w.view());
            }
        }
        for w in weights.by_ref().take(2 * arch.gen) {
            write_plane(&mut out, w.view());
        }
        if let Some(bc) = weights.next() {
            write_plane(
                &mut out,
                PlaneRef { rows: bc.cols(), cols: bc.rows(), data: bc.as_slice() },
            );
        }
        let n = self.companies;
        let mask = self.edges.to_mask::<f32>();
        write_plane(&mut out, PlaneRef { rows: n, cols: n, data: &mask });
        if let Some(sel) = &self.selection {
            write_plane(&mut out, sel.view());
        }
        out
    }

    /// Decode a plan written by [`ForwardPlan::to_bytes`]. Every read
    /// is bounds-checked against the remaining input, so truncated or
    /// corrupt bytes fail with `Err` — this function cannot panic, and
    /// it never allocates beyond what the input length can account for.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        let mut cur = Cursor { buf: bytes, pos: 0 };
        let magic = cur.take(PLAN32_MAGIC.len())?;
        if magic != PLAN32_MAGIC {
            return Err("plan32: bad magic (not an f32 plan)".to_string());
        }
        let version = cur.u8()?;
        if version != PLAN32_VERSION {
            return Err(format!(
                "plan32: unsupported version {version} (this build reads {PLAN32_VERSION})"
            ));
        }
        let residual = cur.u8()? != 0;
        let has_selection = cur.u8()? != 0;
        let width = cur.u32()? as usize;
        let companies = cur.u32()? as usize;
        let nt = cur.u32()? as usize;
        let gat_len = cur.u32()? as usize;
        let gen = cur.u32()? as usize;
        let gamma = cur.f32()?;
        let gamma_c = cur.f32()?;
        // Layer counts are not trusted: each plane consumes bytes, so a
        // lying count fails on `take` long before it can balloon the
        // growing Vecs past the input size.
        let mut weights = Vec::new();
        read_planes(&mut cur, 2 * nt, &mut weights)?;
        let mut gat = Vec::new();
        for _ in 0..gat_len {
            let heads = cur.u32()? as usize;
            let leaky_slope = cur.f32()?;
            read_planes(&mut cur, GatHead::N_PARAMS * heads, &mut weights)?;
            // ams-lint: allow(no-unbounded-queue-in-serve) — bounded by the take()-checked input length
            gat.push(GatSpec { heads, leaky_slope });
        }
        read_planes(&mut cur, 2 * gen, &mut weights)?;
        let beta_c_t = read_plane(&mut cur)?;
        if beta_c_t.rows() != 1 {
            return Err(format!(
                "plan32: beta_c is {}x{}, not a row",
                beta_c_t.rows(),
                beta_c_t.cols()
            ));
        }
        weights.push(Plane::from_vec(beta_c_t.cols(), 1, beta_c_t.into_vec()));
        let mask = read_plane(&mut cur)?;
        let selection = if has_selection { Some(read_plane(&mut cur)?) } else { None };
        if cur.pos != bytes.len() {
            return Err(format!("plan32: {} trailing bytes", bytes.len() - cur.pos));
        }
        if mask.rows() != companies || mask.cols() != companies {
            return Err(format!(
                "plan32: mask is {}x{} but the plan declares {companies} companies",
                mask.rows(),
                mask.cols()
            ));
        }
        // Only 0/1 masks: anything else would not survive the round trip
        // through the edge list.
        if mask.as_slice().iter().any(|&m| m != 0.0 && m != 1.0) {
            return Err("plan32: mask holds a value other than 0 or 1".to_string());
        }
        let edges = EdgeList::from_mask(mask.as_slice(), companies);
        let arch = Arch { nt, gat, residual, gen, gamma, gamma_c };
        Ok(Self { width, companies, arch, weights, edges, selection })
    }
}

fn write_plane(out: &mut Vec<u8>, p: PlaneRef<'_, f32>) {
    out.extend_from_slice(&(p.rows as u32).to_le_bytes());
    out.extend_from_slice(&(p.cols as u32).to_le_bytes());
    for v in p.data {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Append `n` planes read from `cur` to `out`.
fn read_planes(cur: &mut Cursor<'_>, n: usize, out: &mut Vec<Plane<f32>>) -> Result<(), String> {
    for _ in 0..n {
        // ams-lint: allow(no-unbounded-queue-in-serve) — bounded by the take()-checked input length
        out.push(read_plane(cur)?);
    }
    Ok(())
}

fn read_plane(cur: &mut Cursor<'_>) -> Result<Plane<f32>, String> {
    let rows = cur.u32()? as usize;
    let cols = cur.u32()? as usize;
    let n = rows.checked_mul(cols).ok_or_else(|| "plan32: plane size overflows".to_string())?;
    let byte_len = n.checked_mul(4).ok_or_else(|| "plan32: plane size overflows".to_string())?;
    // Reserve nothing until the bytes are proven present — the length
    // check is what keeps a forged header from forcing a huge alloc.
    let raw = cur.take(byte_len)?;
    let data = raw.chunks_exact(4).map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]])).collect();
    Ok(Plane::from_vec(rows, cols, data))
}

/// Length-checked reader over a byte slice.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| format!("plan32: truncated at byte {} (need {n} more)", self.pos))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn f32(&mut self) -> Result<f32, String> {
        let b = self.take(4)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::trained_fixture;

    #[test]
    fn f64_plan_copies_weights_exactly() {
        let fx = trained_fixture(71);
        let plan: ForwardPlan<f64> = ForwardPlan::from_artifact(&fx.artifact);
        let snap = &fx.artifact.snapshot;
        let want: Vec<_> = snap.params().into_iter().map(|(_, w, _)| w).collect();
        assert_eq!(plan.weights.len(), want.len());
        for (pw, w) in plan.weights.iter().zip(want) {
            assert_eq!((pw.rows(), pw.cols()), w.shape());
            assert_eq!(pw.as_slice(), w.as_slice());
        }
        assert_eq!(plan.arch.gamma, snap.config.gamma);
    }

    #[test]
    fn f32_plan_is_nearest_rounding() {
        let fx = trained_fixture(72);
        let p64: ForwardPlan<f64> = ForwardPlan::from_artifact(&fx.artifact);
        let p32: ForwardPlan<f32> = ForwardPlan::from_artifact(&fx.artifact);
        for (a, b) in p64.weights.iter().zip(&p32.weights) {
            for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                assert_eq!((*x as f32).to_bits(), y.to_bits());
            }
        }
        assert_eq!(p32.arch.gamma_c.to_bits(), ((1.0 - p64.arch.gamma) as f32).to_bits());
    }

    #[test]
    fn bytes_round_trip_is_exact() {
        let fx = trained_fixture(73);
        let plan: ForwardPlan<f32> = ForwardPlan::from_artifact(&fx.artifact);
        let bytes = plan.to_bytes();
        let back = ForwardPlan::from_bytes(&bytes).unwrap();
        assert_eq!(back.width, plan.width);
        assert_eq!(back.companies, plan.companies);
        assert_eq!(back.arch, plan.arch);
        assert_eq!(back.weights, plan.weights);
        assert_eq!(back.edges, plan.edges);
        assert_eq!(back.selection, plan.selection);
    }

    #[test]
    fn every_truncation_errors_never_panics() {
        let fx = trained_fixture(74);
        let plan: ForwardPlan<f32> = ForwardPlan::from_artifact(&fx.artifact);
        let bytes = plan.to_bytes();
        for len in 0..bytes.len() {
            assert!(
                ForwardPlan::from_bytes(&bytes[..len]).is_err(),
                "prefix of {len} bytes decoded"
            );
        }
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let fx = trained_fixture(75);
        let plan: ForwardPlan<f32> = ForwardPlan::from_artifact(&fx.artifact);
        let mut bytes = plan.to_bytes();
        bytes[8] = PLAN32_VERSION + 1;
        assert!(ForwardPlan::from_bytes(&bytes).unwrap_err().contains("version"));
        bytes[0] ^= 0xFF;
        assert!(ForwardPlan::from_bytes(&bytes).unwrap_err().contains("magic"));
    }

    #[test]
    fn a_mask_that_is_not_zero_one_is_rejected() {
        // The mask plane is the graph's edge list on disk: its values
        // must be exactly 0 or 1 to decode into edges and back.
        let fx = trained_fixture(76);
        let plan: ForwardPlan<f32> = ForwardPlan::from_artifact(&fx.artifact);
        let n = plan.companies;
        let selection = plan.selection.as_ref().map_or(0, |s| 8 + 4 * s.len());
        let mut bytes = plan.to_bytes();
        let first_cell = bytes.len() - selection - 4 * n * n;
        bytes[first_cell..first_cell + 4].copy_from_slice(&0.5f32.to_le_bytes());
        assert!(ForwardPlan::from_bytes(&bytes).unwrap_err().contains("other than 0 or 1"));
    }

    #[test]
    fn forged_plane_header_cannot_force_a_huge_alloc() {
        // A header claiming u32::MAX × u32::MAX elements must fail the
        // length check (or the overflow check), not attempt the alloc.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(PLAN32_MAGIC);
        bytes.push(PLAN32_VERSION);
        bytes.extend_from_slice(&[0, 0]);
        for v in [1u32, 1, 1, 0, 0] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        bytes.extend_from_slice(&0.5f32.to_le_bytes());
        bytes.extend_from_slice(&0.5f32.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(ForwardPlan::from_bytes(&bytes).is_err());
    }
}
