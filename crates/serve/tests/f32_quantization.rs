//! Property tests for the f32 quantization path (DESIGN.md §14):
//!
//! * quantize → predict stays within the documented epsilon of the f64
//!   batch path, on randomly perturbed models *and* random inputs —
//!   not just the one artifact the unit tests pin;
//! * decoding a truncated or bit-flipped serialized f32 plan returns
//!   `Err` (or a valid plan, for flips that land in payload floats) —
//!   it never panics and never aborts on a forged allocation.

use ams_serve::demo::train_demo;
use ams_serve::plan::ForwardPlan;
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

    /// A serialized plan, truncated at a random point and with a
    /// random byte flipped, decodes to `Err` or a valid plan — never a
    /// panic. (Flips in the float payload can legally decode.)
    #[test]
    fn corrupt_plan_bytes_never_panic(
        cut in 0usize..4096,
        flip_at in 0usize..4096,
        flip_bits in 1i32..256,
    ) {
        let plan: ForwardPlan<f32> =
            ForwardPlan::from_artifact(base_artifact());
        let mut bytes = plan.to_bytes();
        let cut = cut.min(bytes.len());
        bytes.truncate(cut);
        if !bytes.is_empty() {
            let at = flip_at % bytes.len();
            bytes[at] ^= flip_bits as u8;
        }
        // The property is totality: decode returns, whatever the bytes.
        // (A flip in a length field plus a lucky truncation point could
        // in principle still parse, so we assert "no panic", not Err.)
        let _ = ForwardPlan::from_bytes(&bytes);
    }
}

/// Quantize → serialize → decode → predict: the decoded plan is the
/// plan the engine scores with, end to end.
#[test]
fn decoded_plan_predicts_identically_to_in_memory_plan() {
    let artifact = base_artifact().clone();
    let engine = Engine::new(artifact.clone()).unwrap();
    let bytes = artifact.quantize_f32().to_bytes();
    let decoded = ForwardPlan::from_bytes(&bytes).unwrap();
    // Same weights bit-for-bit → the engine's f32 path with its own
    // plan is the ground truth for the decoded copy.
    let in_memory = engine.plan_f32();
    assert_eq!(decoded.width, in_memory.width);
    assert_eq!(decoded.companies, in_memory.companies);
    assert_eq!(decoded.arch, in_memory.arch);
    assert_eq!(decoded.weights.len(), in_memory.weights.len());
    for (i, (a, b)) in decoded.weights.iter().zip(&in_memory.weights).enumerate() {
        assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "weight {i} shape");
        let (a, b) = (a.as_slice().iter(), b.as_slice().iter());
        assert!(a.map(|v| v.to_bits()).eq(b.map(|v| v.to_bits())), "weight {i} bits");
    }
    assert_eq!(decoded.edges, in_memory.edges);
    assert_eq!(decoded.selection, in_memory.selection);
}

/// The `AMSPLN32` bytes of the demo model's f32 plan, pinned: the
/// layout is a shipping format, so a refactor of the plan must not
/// move a byte of it.
#[test]
fn plan32_bytes_match_the_pinned_fixture() {
    let pinned = include_bytes!("fixtures/plan32_demo77.bin");
    let bytes = base_artifact().quantize_f32().to_bytes();
    assert_eq!(bytes.len(), pinned.len(), "AMSPLN32 length moved");
    assert!(bytes == pinned, "AMSPLN32 bytes moved");
    let decoded = ForwardPlan::from_bytes(pinned).unwrap();
    assert!(decoded.to_bytes() == pinned, "from_bytes → to_bytes does not round-trip");
}
