//! Codec fast-path perf harness: scalar vs burst, plus the sparse and
//! sketch wire families.
//!
//! Times encode and decode of one large gradient block through the
//! scalar reference codec ([`InceptionnCodec`]), the burst-vectorized
//! fast path ([`BurstCodec`]), the threshold+error-feedback
//! [`SparseCodec`], and the homomorphic [`SketchCodec`], then writes the
//! numbers to `BENCH_codec.json` at the repo root (or the path given as
//! the first argument). The INCEPTIONN rows also time the in-place lossy
//! round trip (`quantize_inplace`). Future PRs regress against that
//! artifact; the binary itself exits nonzero if the burst codec's
//! combined encode+decode throughput drops below the scalar baseline,
//! or its quantize below its own encode (quantize does strictly less
//! work: no tag vector, no packing), so CI catches a fast-path
//! regression without comparing files.
//!
//! `INCEPTIONN_QUICK=1` shrinks the block for smoke runs; the full run
//! uses the 16M-value block the acceptance numbers are quoted for.

use std::time::Instant;

use inceptionn_bench::{banner, fidelity_from_env};
use inceptionn_compress::gradmodel::{GradientModel, GradientPreset};
use inceptionn_compress::{
    sketch, sparse, BurstCodec, ErrorBound, InceptionnCodec, ResidualState, SketchCodec,
    SparseCodec, SparseConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Timing repetitions; the best (minimum) wall time is reported so a
/// stray scheduler hiccup can't fail the regression gate.
const REPS: usize = 3;
/// Error bound exponent used for the trajectory artifact (2^-8, the
/// paper's middle setting).
const BOUND_EXP: u8 = 8;

struct CodecTiming {
    name: &'static str,
    encode_s: f64,
    decode_s: f64,
    /// In-place lossy round trip, for the codecs that have one.
    quantize_s: Option<f64>,
}

impl CodecTiming {
    fn encode_gbps(&self, bytes: usize) -> f64 {
        bytes as f64 / self.encode_s / 1e9
    }
    fn decode_gbps(&self, bytes: usize) -> f64 {
        bytes as f64 / self.decode_s / 1e9
    }
    fn quantize_gbps(&self, bytes: usize) -> Option<f64> {
        self.quantize_s.map(|s| bytes as f64 / s / 1e9)
    }
    /// Combined encode+decode throughput: raw bytes pushed through both
    /// stages divided by the total time in them.
    fn roundtrip_gbps(&self, bytes: usize) -> f64 {
        bytes as f64 / (self.encode_s + self.decode_s) / 1e9
    }
}

fn best<F: FnMut() -> R, R>(mut f: F) -> (f64, R) {
    let mut best_s = f64::INFINITY;
    let mut out = None;
    for _ in 0..REPS {
        let t = Instant::now();
        let r = f();
        best_s = best_s.min(t.elapsed().as_secs_f64());
        out = Some(r);
    }
    (best_s, out.unwrap())
}

/// Best wall time of `REPS` in-place passes of `quantize`, each over a
/// fresh copy of `input` in `buf` (the copy is not timed).
fn best_inplace(input: &[f32], buf: &mut [f32], mut quantize: impl FnMut(&mut [f32])) -> f64 {
    let mut best_s = f64::INFINITY;
    for _ in 0..REPS {
        buf.copy_from_slice(input);
        let t = Instant::now();
        quantize(buf);
        best_s = best_s.min(t.elapsed().as_secs_f64());
    }
    best_s
}

fn json_escape_free(name: &str) -> &str {
    // All strings we emit are static identifiers; assert rather than
    // carry a full escaper.
    assert!(name
        .chars()
        .all(|c| c.is_ascii_graphic() && c != '"' && c != '\\'));
    name
}

fn main() {
    print!(
        "{}",
        banner("codec fast-path throughput", "Sec. V / software datapath")
    );
    let fidelity = fidelity_from_env();
    let n = fidelity.scale(16 * 1024 * 1024, 256 * 1024);
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_codec.json".to_string());

    let bound = ErrorBound::pow2(BOUND_EXP);
    let scalar = InceptionnCodec::new(bound);
    let burst = BurstCodec::new(bound);

    println!(
        "block: {n} values ({:.1} MiB), bound 2^-{BOUND_EXP}, {REPS} reps (best)",
        (n * 4) as f64 / (1024.0 * 1024.0),
    );
    let mut rng = StdRng::seed_from_u64(0x1ce9);
    let grads = GradientModel::preset(GradientPreset::AlexNet).sample(&mut rng, n);
    let raw_bytes = n * 4;

    // Untimed warm-up roundtrips: fault in the input pages and size the
    // allocator pools so the first timed rep measures the codec, not
    // first-touch costs.
    let _ = scalar
        .decompress(&scalar.compress(&grads[..n.min(1 << 20)]))
        .expect("scalar warm-up");
    let _ = burst.compress(&grads[..n.min(1 << 20)]);

    // --- scalar reference ---
    let (enc_s, stream) = best(|| scalar.compress(&grads));
    let (dec_s, restored) = best(|| scalar.decompress(&stream).expect("scalar decode"));
    let wire_ratio = raw_bytes as f64 / stream.bytes.len() as f64;
    let mut quantized = vec![0f32; n];
    let q_s = best_inplace(&grads, &mut quantized, |v| scalar.quantize_inplace(v));
    assert_eq!(
        quantized, restored,
        "scalar quantize diverged from its round trip"
    );
    let scalar_t = CodecTiming {
        name: "scalar",
        encode_s: enc_s,
        decode_s: dec_s,
        quantize_s: Some(q_s),
    };

    // --- burst fast path ---
    let (enc_s, bstream) = best(|| burst.compress(&grads));
    assert_eq!(
        bstream.bytes, stream.bytes,
        "burst stream diverged from scalar"
    );
    let mut bout = vec![0f32; n];
    let (dec_s, ()) = best(|| {
        burst
            .decompress_into(&bstream.bytes, n, &mut bout)
            .expect("burst decode")
    });
    assert_eq!(bout, restored, "burst decode diverged from scalar");
    let q_s = best_inplace(&grads, &mut quantized, |v| burst.quantize_inplace(v));
    assert_eq!(quantized, restored, "burst quantize diverged from scalar");
    let burst_t = CodecTiming {
        name: "burst",
        encode_s: enc_s,
        decode_s: dec_s,
        quantize_s: Some(q_s),
    };

    // --- sparse threshold+EF codec ---
    // A different wire family (index/value pairs, not truncated floats),
    // so no bit-identity against the rows above; the roundtrip is
    // checked in-family. Throughput is still quoted per *input* byte so
    // the rows compare on the same axis. `begin_iteration` rewinds the
    // residual leg each rep, so every rep encodes the same leg slot.
    let sparse_codec = SparseCodec::new(SparseConfig {
        bound: ErrorBound::pow2(6),
        top_per_mille: 0,
        seed: 0x1CEE_D5EE_D0DE_C0DE,
    });
    let mut sp_state = ResidualState::new();
    let mut sp_buf = Vec::new();
    sparse_codec.encode_append(0, &mut sp_state, &grads, &mut sp_buf);
    let (enc_s, ()) = best(|| {
        sp_state.begin_iteration();
        sp_buf.clear();
        sparse_codec.encode_append(0, &mut sp_state, &grads, &mut sp_buf);
    });
    let mut sp_out = vec![0f32; n];
    let (dec_s, ()) = best(|| sparse::decode_frame(&sp_buf, &mut sp_out).expect("sparse decode"));
    let sparse_wire_ratio = raw_bytes as f64 / sp_buf.len() as f64;
    let sparse_t = CodecTiming {
        name: "sparse",
        encode_s: enc_s,
        decode_s: dec_s,
        quantize_s: None,
    };

    // --- count-sketch codec ---
    let sketch_codec = SketchCodec::new(6, 0x1CEE_D5EE_D0DE_C0DE);
    let mut sk_buf = Vec::new();
    sketch_codec.encode_append(&grads, &mut sk_buf);
    let (enc_s, ()) = best(|| {
        sk_buf.clear();
        sketch_codec.encode_append(&grads, &mut sk_buf);
    });
    let mut sk_out = vec![0f32; n];
    let (dec_s, ()) = best(|| sketch::decode_frame(&sk_buf, &mut sk_out).expect("sketch decode"));
    assert_eq!(sk_out, sketch_codec.quantize(&grads), "sketch not exact");
    let sketch_wire_ratio = raw_bytes as f64 / sk_buf.len() as f64;
    let sketch_t = CodecTiming {
        name: "sketch",
        encode_s: enc_s,
        decode_s: dec_s,
        quantize_s: None,
    };

    let timings = [&scalar_t, &burst_t, &sparse_t, &sketch_t];
    println!(
        "\n{:<10} {:>12} {:>12} {:>14} {:>12}",
        "codec", "enc GB/s", "dec GB/s", "enc+dec GB/s", "quant GB/s"
    );
    for t in timings {
        let quant = t
            .quantize_gbps(raw_bytes)
            .map_or_else(|| "-".to_string(), |g| format!("{g:.3}"));
        println!(
            "{:<10} {:>12.3} {:>12.3} {:>14.3} {:>12}",
            t.name,
            t.encode_gbps(raw_bytes),
            t.decode_gbps(raw_bytes),
            t.roundtrip_gbps(raw_bytes),
            quant,
        );
    }
    let speedup = burst_t.roundtrip_gbps(raw_bytes) / scalar_t.roundtrip_gbps(raw_bytes);
    println!("\nwire ratio {wire_ratio:.2}x, burst/scalar speedup {speedup:.2}x");
    println!(
        "sparse wire ratio {sparse_wire_ratio:.2}x (2^-6 threshold), \
         sketch wire ratio {sketch_wire_ratio:.2}x (frac_bits 6)"
    );

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"values\": {n},\n"));
    json.push_str(&format!("  \"raw_bytes\": {raw_bytes},\n"));
    json.push_str(&format!("  \"bound_exp\": {BOUND_EXP},\n"));
    json.push_str(&format!(
        "  \"fidelity\": \"{}\",\n",
        if n == 16 * 1024 * 1024 {
            "full"
        } else {
            "quick"
        }
    ));
    json.push_str(&format!("  \"wire_ratio\": {wire_ratio:.4},\n"));
    json.push_str(&format!(
        "  \"sparse_wire_ratio\": {sparse_wire_ratio:.4},\n"
    ));
    json.push_str(&format!(
        "  \"sketch_wire_ratio\": {sketch_wire_ratio:.4},\n"
    ));
    json.push_str("  \"codecs\": {\n");
    for (i, t) in timings.iter().enumerate() {
        let quant = t
            .quantize_gbps(raw_bytes)
            .map_or_else(String::new, |g| format!(", \"quantize_gbps\": {g:.4}"));
        json.push_str(&format!(
            "    \"{}\": {{ \"encode_gbps\": {:.4}, \"decode_gbps\": {:.4}, \"roundtrip_gbps\": {:.4}{} }}{}\n",
            json_escape_free(t.name),
            t.encode_gbps(raw_bytes),
            t.decode_gbps(raw_bytes),
            t.roundtrip_gbps(raw_bytes),
            quant,
            if i + 1 < timings.len() { "," } else { "" },
        ));
    }
    json.push_str("  },\n");
    json.push_str(&format!("  \"burst_over_scalar_speedup\": {speedup:.4}\n"));
    json.push_str("}\n");
    std::fs::write(&out_path, json).expect("write BENCH_codec.json");
    println!("wrote {out_path}");

    if speedup < 1.0 {
        eprintln!("FAIL: burst codec ({speedup:.2}x) regressed below the scalar baseline");
    }
    let quantize_ok = burst_t.quantize_s.is_some_and(|q| q <= burst_t.encode_s);
    if !quantize_ok {
        eprintln!("FAIL: burst quantize fell below burst encode, which does strictly more work");
    }
    if speedup < 1.0 || !quantize_ok {
        std::process::exit(1);
    }
}
