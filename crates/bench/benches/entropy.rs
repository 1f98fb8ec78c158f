//! The entropy-coding kernels that every codec in the stack is built on:
//! canonical Huffman, the adaptive range coder, and CRC-32. One row per
//! kernel: the median time of a call and its throughput.
//!
//! `cargo bench -p fedsz-bench --bench entropy`

use fedsz_bench::{median_s, print_header};
use fedsz_entropy::bitio::{BitReader, BitWriter};
use fedsz_entropy::crc32::crc32;
use fedsz_entropy::huffman::{HuffmanDecoder, HuffmanEncoder};
use fedsz_entropy::rangecoder::{BitModel, RangeDecoder, RangeEncoder};
use fedsz_tensor::SplitMix64;

/// Quantization-code-like symbols: a Gaussian of `sigma` bins over a 2^16
/// alphabet.
fn quant_codes(n: usize, sigma: f64) -> Vec<u32> {
    let mut rng = SplitMix64::new(11);
    (0..n)
        .map(|_| (32768.0 + rng.normal_with(0.0, sigma)).clamp(1.0, 65534.0) as u32)
        .collect()
}

/// Time `f` with [`median_s`] and print its row: the median in µs and
/// `work` units of `unit` per second.
fn row<R>(name: &str, reps: usize, work: f64, unit: &str, f: impl FnMut() -> R) {
    let secs = median_s(reps, f);
    println!(
        "{name}\t{reps}\t{:.1}\t{:.1}\t{unit}",
        secs * 1e6,
        work / secs
    );
}

/// Code length of each alphabet symbol, read back from a serialized table.
fn table_lengths(table: &[u8]) -> Vec<u8> {
    let mut r = BitReader::new(table);
    let n = r.read_u32().unwrap() as usize;
    let mut lens = Vec::with_capacity(n);
    while lens.len() < n {
        let len = r.read_bits(6).unwrap() as u8;
        let run = r.read_bits(16).unwrap() as usize;
        lens.resize(lens.len() + run, len);
    }
    lens
}

fn bench_huffman() {
    // "wide": MobileNetV2's update at rel 1e-4 codes ~9.9 bits per symbol,
    // lengths 8-19, 3.9 % of its symbols past the 12-bit lookup table;
    // sigma = 260 sends the same share there (~10.1 bits, lengths 9-20,
    // ~2 000 live symbols). One symbol per table hit going in, the fewest
    // codes per joined write going out. "narrow": ~3 bits per symbol, as
    // SZ2 codes at rel 1e-2, where a table hit of the bulk decode yields up
    // to three symbols and the bulk encode joins the most codes per write.
    for (shape, sigma, long_share) in [("wide", 260.0, 0.03..0.05), ("narrow", 2.5, 0.0..0.001)] {
        let syms = quant_codes(1 << 20, sigma);
        let msyms = syms.len() as f64 / 1e6;
        let name = |op: &str| format!("huffman/{op}/{shape}");
        let mut freqs = vec![0u64; 1 << 16];
        for &s in &syms {
            freqs[s as usize] += 1;
        }
        // The table is built once per tensor, so it is timed on its own:
        // code lengths, canonical codes and the serialized header.
        row(&name("table_build"), 10, 1.0, "table/s", || {
            let enc = HuffmanEncoder::from_frequencies(&freqs);
            let mut w = BitWriter::new();
            enc.write_table(&mut w);
            w.finish()
        });
        let enc = HuffmanEncoder::from_frequencies(&freqs);
        // Both rows write the same bytes: per-symbol `encode` against bulk
        // `encode_run`.
        row(&name("encode"), 10, msyms, "Msym/s", || {
            let mut w = BitWriter::with_capacity(syms.len() / 2);
            for &s in &syms {
                enc.encode(&mut w, s);
            }
            w.finish()
        });
        row(&name("encode_run"), 10, msyms, "Msym/s", || {
            let mut w = BitWriter::with_capacity(syms.len() / 2);
            enc.encode_run(&mut w, &syms);
            w.finish()
        });

        let mut w = BitWriter::new();
        enc.write_table(&mut w);
        let table = w.finish();
        let lens = table_lengths(&table);
        let long = syms.iter().filter(|&&s| lens[s as usize] > 12).count() as f64;
        let bits: f64 = syms.iter().map(|&s| f64::from(lens[s as usize])).sum();
        let share = long / syms.len() as f64;
        println!(
            "# {shape}: {:.2} bits per symbol, {:.2} % of symbols past 12 bits",
            bits / syms.len() as f64,
            share * 100.0
        );
        assert!(
            long_share.contains(&share),
            "{shape}: {share} of the symbols past 12 bits, outside {long_share:?}"
        );
        // The decoder's table build from the serialized header.
        row(&name("read_table"), 10, 1.0, "table/s", || {
            HuffmanDecoder::read_table(&mut BitReader::new(&table)).unwrap()
        });

        let mut w = BitWriter::with_capacity(syms.len() / 2);
        enc.write_table(&mut w);
        for &s in &syms {
            enc.encode(&mut w, s);
        }
        let bytes = w.finish();
        // Both rows decode the same stream into the same buffer, table read
        // included: per-symbol `decode` against bulk `decode_run`.
        let mut out = vec![0u32; syms.len()];
        row(&name("decode"), 10, msyms, "Msym/s", || {
            let mut r = BitReader::new(&bytes);
            let dec = HuffmanDecoder::read_table(&mut r).unwrap();
            for slot in out.iter_mut() {
                *slot = dec.decode(&mut r).unwrap();
            }
        });
        assert_eq!(out, syms, "decode must reproduce the encoded symbols");
        out.fill(0);
        row(&name("decode_run"), 10, msyms, "Msym/s", || {
            let mut r = BitReader::new(&bytes);
            let dec = HuffmanDecoder::read_table(&mut r).unwrap();
            dec.decode_run(&mut r, &mut out).unwrap();
        });
        assert_eq!(out, syms, "decode_run must reproduce the encoded symbols");
    }

    // "e4": a table alone, at the spread of the widest MobileNetV2 tensors
    // at rel 1e-4 (sigma ~ 2 000 bins, over ten thousand live symbols),
    // built over the span of codes that occur, as the SZ container builds
    // it: what the leaf sort and the code table cost when the live symbols
    // number in the thousands.
    let syms = quant_codes(1 << 20, 2000.0);
    let mut freqs = vec![0u64; 1 << 16];
    let (mut least, mut greatest) = (u32::MAX, 0u32);
    for &s in &syms {
        freqs[s as usize] += 1;
        least = least.min(s);
        greatest = greatest.max(s);
    }
    let spans = [0..1, least as usize..greatest as usize + 1];
    let live = freqs.iter().filter(|&&f| f > 0).count();
    println!(
        "# e4: {live} live symbols over a span of {}",
        spans[1].len()
    );
    row("huffman/table_build/e4", 10, 1.0, "table/s", || {
        let enc = HuffmanEncoder::from_frequencies_in(&freqs, &spans);
        let mut w = BitWriter::new();
        enc.write_table(&mut w);
        w.finish()
    });
}

fn bench_rangecoder() {
    let mut rng = SplitMix64::new(13);
    let bits: Vec<u8> = (0..1 << 20)
        .map(|_| u8::from(rng.next_f64() < 0.2))
        .collect();
    let mbits = bits.len() as f64 / 1e6;
    row("rangecoder/encode", 10, mbits, "Mbit/s", || {
        let mut enc = RangeEncoder::new();
        let mut m = BitModel::new();
        for &bit in &bits {
            enc.encode_bit(&mut m, bit);
        }
        enc.finish()
    });
    let mut enc = RangeEncoder::new();
    let mut m = BitModel::new();
    for &bit in &bits {
        enc.encode_bit(&mut m, bit);
    }
    let data = enc.finish();
    row("rangecoder/decode", 10, mbits, "Mbit/s", || {
        let mut dec = RangeDecoder::new(&data).unwrap();
        let mut m = BitModel::new();
        let mut acc = 0u64;
        for _ in 0..bits.len() {
            acc += dec.decode_bit(&mut m) as u64;
        }
        acc
    });
}

fn bench_crc32() {
    let data: Vec<u8> = (0..1 << 20).map(|i| (i * 31) as u8).collect();
    row("crc32/1MiB", 20, 1.0, "MiB/s", || crc32(&data));
}

fn main() {
    print_header(
        "entropy: canonical Huffman over 2^20 symbols, the range coder over 2^20 bits, CRC-32 over 1 MiB",
        &["row", "reps", "median_us", "throughput", "unit"],
    );
    bench_huffman();
    bench_rangecoder();
    bench_crc32();
}
