// Fixture for the `one-compression-layer` rule, linted as
// `crates/delta/src/...`: index rows are kept small by their grammar,
// and the store's optional value compression is the one LZSS layer.

use hgs_delta::compress::{compress, decompress}; // FIRES:one-compression-layer
use crate::compress::decompress; // FIRES:one-compression-layer
use crate::compress::*; // FIRES:one-compression-layer
use crate::compress::{self, MAX_MATCH}; // clean: the module and a constant call nothing

// The in-row layer as it stood: a segment kept as its LZSS stream
// when that was shorter, and inflated again on read.
fn assemble(seg: &[u8]) -> Bytes {
    let c = compress::compress(seg); // FIRES:one-compression-layer
    if c.len() < seg.len() {
        c
    } else {
        Bytes::copy_from_slice(seg)
    }
}

fn decode_seg(stored: &[u8]) -> Result<Bytes, CodecError> {
    crate::compress::decompress(stored) // FIRES:one-compression-layer
}

// A field or a builder named after compression is not the codec.
fn configured(cfg: StoreConfig) -> bool {
    cfg.compress && cfg.with_compression(true).compress // clean
}

fn measured(data: &[u8]) -> Bytes {
    // hgs-lint: allow(one-compression-layer, "a probe that times the codec itself")
    compress::compress(data)
}

#[cfg(test)]
mod tests {
    use crate::compress::{compress, decompress}; // clean: tests round-trip the codec

    #[test]
    fn round_trip() {
        assert_eq!(&decompress(&compress(b"abab")).unwrap()[..], b"abab");
    }
}
