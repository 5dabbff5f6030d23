// Fixture for the `bounded-decode-alloc` rule, linted as
// `crates/core/src/...` (any of the decoding crates): a count read off
// stored bytes is whatever the bytes say, so a fn that decodes varints
// may not size an allocation by one without showing its bound.

impl TimespanMeta {
    // The shape `TimespanMeta::decode` had before PR 24: a `Timespans`
    // row `[0, 0, 0, varint(2^62)]` made `Tgi::open` panic with
    // `capacity overflow`.
    pub fn decode(mut buf: &[u8]) -> Result<TimespanMeta, CodecError> {
        let b = &mut buf;
        let tsid = get_varint(b)? as u32;
        let n = get_varint(b)? as usize;
        let mut checkpoints = Vec::with_capacity(n); // FIRES:bounded-decode-alloc
        let mut prev = 0u64;
        for _ in 0..n {
            prev = prev.wrapping_add(get_varint(b)?);
            checkpoints.push(prev);
        }
        let np = get_varint(b)? as usize;
        let mut pid_counts = Vec::new();
        pid_counts.reserve(np); // FIRES:bounded-decode-alloc
        for _ in 0..np {
            pid_counts.push(get_varint(b)? as u32);
        }
        Ok(TimespanMeta { tsid, checkpoints, pid_counts })
    }

    // The fix: the count is held to the bytes left before it is used.
    pub fn decode_bounded(mut buf: &[u8]) -> Result<TimespanMeta, CodecError> {
        let b = &mut buf;
        let tsid = get_varint(b)? as u32;
        let n = bounded_count(b, 1, "checkpoints")?;
        let mut checkpoints = Vec::with_capacity(n); // clean: a bounded_count result
        for _ in 0..n {
            checkpoints.push(get_varint(b)?);
        }
        Ok(TimespanMeta { tsid, checkpoints, pid_counts: Vec::new() })
    }
}

// The codec's sanity cap counts as a bound, re-assigned or not.
fn decode_dict(b: &mut &[u8]) -> Result<Vec<u64>, CodecError> {
    let mut n = 0;
    if get_u8(b)? != 0 {
        n = get_len(b, "dict")?;
    }
    let mut out = Vec::with_capacity(n); // clean: a get_len result
    for _ in 0..n {
        out.push(get_varint(b)?);
    }
    Ok(out)
}

// A count handed in is fine once the fn refuses what the bytes cannot hold.
fn decode_entries(b: &mut &[u8], n_edges: usize, out: &mut Vec<u64>) -> Result<(), CodecError> {
    if n_edges > b.len() {
        return Err(CodecError::UnexpectedEof { needed: n_edges, remaining: b.len() });
    }
    out.reserve(n_edges); // clean: refused above when too large
    for _ in 0..n_edges {
        out.push(get_varint(b)?);
    }
    Ok(())
}

// Anything but a bare identifier is the author's stated bound.
fn decode_capped(b: &mut &[u8]) -> Result<Vec<u64>, CodecError> {
    let n = get_varint(b)? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 20)); // clean: capped
    let mut scratch = BytesMut::with_capacity(n * 0 + 8); // clean: an expression
    for _ in 0..n {
        out.push(get_varint(b)?);
    }
    Ok(out)
}

// A fn that decodes nothing sizes by what it was given.
fn encode_all(values: &[u64]) -> BytesMut {
    let n = values.len();
    let mut buf = BytesMut::with_capacity(n); // clean: no varint is read here
    for &v in values {
        put_varint(&mut buf, v);
    }
    buf
}

fn audited(b: &mut &[u8]) -> Result<Vec<u8>, CodecError> {
    let n = get_varint(b)? as usize;
    // hgs-lint: allow(bounded-decode-alloc, "n is the row's own length, checked by the caller")
    let out = Vec::with_capacity(n);
    Ok(out)
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_allocate_as_they_like() {
        let mut b: &[u8] = &[3];
        let n = get_varint(&mut b).unwrap() as usize;
        let v: Vec<u8> = Vec::with_capacity(n); // clean
        assert!(v.is_empty());
    }
}
