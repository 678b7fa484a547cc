//! Tests for the f32 quantization path (DESIGN.md §14):
//!
//! * quantize → predict stays within the documented epsilon of the f64
//!   batch path, on randomly perturbed models *and* random inputs —
//!   not just the one artifact the unit tests pin;
//! * the demo model's quantized weights, edges and selection still
//!   match, bit for bit, the ones pinned in `fixtures/plan32_demo77.bin`.

use ams_serve::demo::train_demo;
use ams_serve::plan::Plane;
use ams_serve::{Engine, ModelArtifact};
use proptest::prelude::*;
use std::sync::OnceLock;

/// One trained fixture shared by every proptest case: training is the
/// expensive part, perturbation is cheap.
fn base_artifact() -> &'static ModelArtifact {
    static FIXTURE: OnceLock<ModelArtifact> = OnceLock::new();
    FIXTURE.get_or_init(|| train_demo(77).artifact)
}

/// The documented f32 serving bound: `rel·|f64| + abs` with
/// `rel = abs = 1e-4`.
fn within_f32_bound(want: f64, got: f64) -> bool {
    (want - got).abs() <= 1e-4 * want.abs() + 1e-4
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random model (weights perturbed multiplicatively) × random
    /// input (reference features rescaled/shifted): the quantized
    /// prediction tracks the f64 prediction within the bound.
    #[test]
    fn quantized_predictions_track_f64_on_random_models(
        w_scale in 0.5f64..1.5,
        x_scale in 0.25f64..2.0,
        x_shift in -0.5f64..0.5,
    ) {
        let mut artifact = base_artifact().clone();
        let snap = &mut artifact.snapshot;
        for layer in snap.nt.iter_mut().chain(snap.gen.iter_mut()) {
            layer.w = layer.w.map(|v| v * w_scale);
        }
        for layer in &mut snap.gat {
            for head in &mut layer.heads {
                head.w = head.w.map(|v| v * w_scale);
            }
        }
        snap.beta_c = snap.beta_c.map(|v| v * w_scale);
        let engine = Engine::new(artifact).expect("perturbed artifact still validates");
        let x = engine.artifact().reference_features.map(|v| v * x_scale + x_shift);
        let want = engine.predict_batch(&x).expect("f64 path");
        let got = engine.predict_batch_f32(&x).expect("f32 path");
        for i in 0..want.rows() {
            prop_assert!(
                within_f32_bound(want[(i, 0)], got[(i, 0)]),
                "row {i}: f64 {} vs f32 {}", want[(i, 0)], got[(i, 0)]
            );
        }
    }
}

/// A reader for the pinned fixture's fixed layout (integers
/// little-endian):
///
/// ```text
/// magic[8] | version u8 | residual u8 | has_selection u8
/// width u32 | companies u32 | nt u32 | gat u32 | gen u32
/// gamma f32 | gamma_c f32
/// nt × (plane w, plane b)
/// gat × (heads u32, leaky_slope f32, heads × (plane w, a_left, a_right))
/// gen × (plane w, plane b)
/// plane beta_cᵀ (1×m) | plane mask | [plane selection]
/// ```
///
/// where plane = rows u32 | cols u32 | rows·cols × f32. Reads past the
/// end panic, which fails the test.
struct Pinned<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Pinned<'_> {
    fn take<const N: usize>(&mut self) -> [u8; N] {
        let b = self.bytes[self.pos..self.pos + N].try_into().unwrap();
        self.pos += N;
        b
    }

    fn u32(&mut self) -> usize {
        u32::from_le_bytes(self.take()) as usize
    }

    fn f32_bits(&mut self) -> u32 {
        u32::from_le_bytes(self.take())
    }

    /// A plane as its shape and the bits of its values.
    fn plane(&mut self) -> (usize, usize, Vec<u32>) {
        let (rows, cols) = (self.u32(), self.u32());
        (rows, cols, (0..rows * cols).map(|_| self.f32_bits()).collect())
    }
}

fn bits(p: &Plane<f32>) -> (usize, usize, Vec<u32>) {
    (p.rows(), p.cols(), p.as_slice().iter().map(|v| v.to_bits()).collect())
}

/// `plan32_demo77.bin` pins the demo model's quantized f32 plan: every
/// weight (β_c under its 1×m header), the graph as a dense 0/1 mask and
/// the slave selection. A refactor of the training or quantization path
/// must not move a bit of them.
#[test]
fn pinned_fixture_holds_the_quantized_demo_plan() {
    let plan = base_artifact().quantize_f32();
    let arch = &plan.arch;
    let mut r = Pinned { bytes: include_bytes!("fixtures/plan32_demo77.bin"), pos: 0 };
    assert_eq!(&r.take::<8>(), b"AMSPLN32");
    assert_eq!(r.take(), [1, arch.residual as u8, plan.selection.is_some() as u8]);
    let header = [r.u32(), r.u32(), r.u32(), r.u32(), r.u32()];
    assert_eq!(header, [plan.width, plan.companies, arch.nt, arch.gat.len(), arch.gen]);
    assert_eq!([r.f32_bits(), r.f32_bits()], [arch.gamma.to_bits(), arch.gamma_c.to_bits()]);
    let mut weights = plan.weights.iter().map(bits);
    for _ in 0..2 * arch.nt {
        assert_eq!(r.plane(), weights.next().unwrap(), "node-transform weight");
    }
    for layer in &arch.gat {
        assert_eq!(r.u32(), layer.heads);
        assert_eq!(r.f32_bits(), layer.leaky_slope.to_bits());
        for _ in 0..3 * layer.heads {
            assert_eq!(r.plane(), weights.next().unwrap(), "GAT weight");
        }
    }
    for _ in 0..2 * arch.gen {
        assert_eq!(r.plane(), weights.next().unwrap(), "generator weight");
    }
    let (m, one, beta_c) = weights.next().unwrap();
    assert_eq!((one, weights.next()), (1, None), "β_c is the last weight, an m×1 column");
    assert_eq!(r.plane(), (1, m, beta_c), "β_c");
    let n = plan.companies;
    let mask = plan.edges.to_mask::<f32>().iter().map(|v| v.to_bits()).collect();
    assert_eq!(r.plane(), (n, n, mask), "graph mask");
    if let Some(sel) = &plan.selection {
        assert_eq!(r.plane(), bits(sel), "selection");
    }
    assert_eq!(r.pos, r.bytes.len(), "trailing bytes");
}
