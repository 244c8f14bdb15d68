//! Compile-and-run check for the large-alphabet leakage example in
//! README.md ("Measuring leakage at scale"). If this test breaks,
//! update the README.

use dplearn::infotheory::blahut_arimoto::{blahut_arimoto, BaOptions, BaTileOptions};
use dplearn::infotheory::channel::DiscreteChannel;
use dplearn::infotheory::mi_accounting::MiAccountant;
use dplearn::telemetry::NoopRecorder;
use dplearn::DplearnError;

#[test]
fn readme_leakage_example_runs_as_written() -> Result<(), DplearnError> {
    // A 4096-hypothesis Gibbs-selection channel, stored flat
    // (row-major, one allocation) instead of Vec-of-Vec.
    let (nx, ny) = (64, 4096);
    let input = vec![1.0 / nx as f64; nx];
    let mut kernel = Vec::with_capacity(nx * ny);
    for x in 0..nx {
        let logits: Vec<f64> = (0..ny)
            .map(|y| ((x * 31 + y * 7) % 97) as f64 / 97.0)
            .collect();
        let z: f64 = logits.iter().map(|l| l.exp()).sum();
        kernel.extend(logits.iter().map(|l| l.exp() / z));
    }
    let ch = DiscreteChannel::new(input, kernel, ny)?;

    // Blocked kernels: bit-identical to the naive passes at every tile
    // size and worker count — tiling is a layout decision, never a
    // numerical one.
    let mi = ch.mutual_information_blocked(256)?;
    let leak_bits = ch.min_entropy_leakage_bits_blocked(256)?;
    let eps = ch.max_row_log_ratio_blocked(256)?; // the channel's realized ε
    assert!(leak_bits >= 0.0);
    // The tile-free methods run the same kernels at a fixed tile.
    assert_eq!(ch.mutual_information().to_bits(), mi.to_bits());

    // The running Cuff–Yu MI track: ε·tanh(ε/2) nats per ε-DP query,
    // additive across queries, always below the linear Σε conversion.
    // `EngineReport` carries this track next to the basic/advanced ε
    // tracks for every registered dataset.
    let mut track = MiAccountant::new();
    track.charge_epsilon(eps)?;
    assert!(mi <= track.per_record_nats());
    assert!(track.per_record_nats() < eps);

    // Blahut–Arimoto with explicit tile geometry: the same bits as the
    // default geometry.
    let source = vec![0.25; 4];
    let distortion: Vec<Vec<f64>> = (0..4)
        .map(|x| (0..4).map(|y| f64::from(u8::from(x != y))).collect())
        .collect();
    let reference = blahut_arimoto(
        &source,
        &distortion,
        2.0,
        &BaOptions::new(1e-10, 10_000),
        &NoopRecorder,
    )?;
    let opts = BaOptions {
        tiles: BaTileOptions {
            row_tile: 1,
            col_tile: 1,
        },
        ..BaOptions::new(1e-10, 10_000)
    };
    let tiled = blahut_arimoto(&source, &distortion, 2.0, &opts, &NoopRecorder)?;
    assert_eq!(tiled.rate.to_bits(), reference.rate.to_bits());
    // Every solve also returns Blahut's certified lower bound on R(D).
    assert!(tiled.rate_lower_bound <= tiled.rate);
    Ok(())
}
