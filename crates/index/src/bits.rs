//! Bit-level I/O for the skip-index encodings.
//!
//! Node records are byte-aligned (the paper: "In all these methods, the
//! metadata need be aligned on a byte frontier"), so writers expose an
//! explicit [`BitWriter::align`] and readers track their byte position for
//! subtree skips.
//!
//! [`BitWriter`] holds the one bit-packing loop. [`BitSink`] wraps it to
//! stream completed bytes to a consumer at byte boundaries — the TCSBR
//! encoder writes through it, so publishing never holds the encoded
//! document whole.

/// Number of bits needed to express values in `0..=max` (at least 1).
pub fn width_for(max: u64) -> u32 {
    if max == 0 {
        1
    } else {
        64 - max.leading_zeros()
    }
}

/// MSB-first bit writer.
#[derive(Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Bits already used in the last byte (0 = aligned).
    used: u32,
}

impl BitWriter {
    /// Fresh writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes the `width` low bits of `value`, MSB first, packing as many
    /// bits per step as fit in the current byte.
    pub fn write(&mut self, value: u64, width: u32) {
        debug_assert!(width <= 64);
        debug_assert!(
            width == 64 || value < (1u64 << width),
            "value {value} overflows {width} bits"
        );
        let mut left = width;
        while left > 0 {
            if self.used == 0 {
                self.bytes.push(0);
            }
            let room = 8 - self.used;
            let n = room.min(left);
            left -= n;
            let chunk = (value >> left) & ((1 << n) - 1);
            *self.bytes.last_mut().expect("pushed") |= (chunk as u8) << (room - n);
            self.used = (self.used + n) % 8;
        }
    }

    /// Writes a single flag bit.
    pub fn write_bit(&mut self, bit: bool) {
        self.write(bit as u64, 1);
    }

    /// Pads with zero bits to the next byte boundary.
    pub fn align(&mut self) {
        self.used = 0;
    }

    /// Appends raw bytes (must be aligned).
    pub fn write_bytes(&mut self, data: &[u8]) {
        assert_eq!(self.used, 0, "write_bytes requires byte alignment");
        self.bytes.extend_from_slice(data);
    }

    /// Current length in bytes (including any partial byte).
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Finishes, returning the buffer.
    pub fn finish(self) -> Vec<u8> {
        self.bytes
    }
}

/// How many buffered bytes a [`BitSink`] accumulates before handing them
/// downstream. Small enough that the encoder's resident state stays far
/// below any chunk, large enough to amortize the callback.
const SINK_FLUSH: usize = 1024;

/// A [`BitWriter`] that streams its bytes to a consumer instead of
/// accumulating the whole output — the encoder half of the one-pass
/// publish path. Bits are packed by the inner writer; bytes go downstream
/// only at byte boundaries ([`align`](Self::align) and
/// [`write_bytes`](Self::write_bytes)), once `SINK_FLUSH` of them are
/// buffered, so the bit writes themselves never call out and never fail.
/// Resident: under `SINK_FLUSH` bytes plus the longest unaligned run and
/// the largest short aligned payload written.
pub struct BitSink<F, E>
where
    F: FnMut(&[u8]) -> Result<(), E>,
{
    w: BitWriter,
    emit: F,
    /// Total bytes handed downstream.
    emitted: usize,
    /// Peak bytes buffered here (for residency accounting).
    peak: usize,
}

impl<F, E> BitSink<F, E>
where
    F: FnMut(&[u8]) -> Result<(), E>,
{
    /// Fresh sink over a consumer callback.
    pub fn new(emit: F) -> Self {
        BitSink { w: BitWriter::new(), emit, emitted: 0, peak: 0 }
    }

    /// Writes the `width` low bits of `value`, MSB first.
    pub fn write(&mut self, value: u64, width: u32) {
        self.w.write(value, width);
    }

    /// Writes a single flag bit.
    pub fn write_bit(&mut self, bit: bool) {
        self.w.write_bit(bit);
    }

    /// Pads with zero bits to the next byte boundary, then hands the
    /// buffer downstream if it is full enough.
    pub fn align(&mut self) -> Result<(), E> {
        self.w.align();
        self.drain_if_full()
    }

    /// Appends raw bytes (must be aligned). A payload of `SINK_FLUSH` bytes
    /// or more (a long text body) goes downstream directly, after what is
    /// buffered.
    pub fn write_bytes(&mut self, data: &[u8]) -> Result<(), E> {
        if data.len() < SINK_FLUSH {
            self.w.write_bytes(data);
            return self.drain_if_full();
        }
        assert_eq!(self.w.used, 0, "write_bytes requires byte alignment");
        self.drain()?;
        (self.emit)(data)?;
        self.emitted += data.len();
        Ok(())
    }

    fn drain_if_full(&mut self) -> Result<(), E> {
        if self.w.len() >= SINK_FLUSH {
            self.drain()?;
        }
        Ok(())
    }

    /// Hands every buffered byte downstream (called at byte boundaries
    /// only, so there is no partial byte to keep).
    fn drain(&mut self) -> Result<(), E> {
        self.peak = self.peak.max(self.w.len());
        if !self.w.is_empty() {
            (self.emit)(&self.w.bytes)?;
            self.emitted += self.w.len();
            self.w.bytes.clear();
        }
        Ok(())
    }

    /// Finishes: zero-pads a final partial byte, flushes everything and
    /// returns `(total_bytes, peak_buffered)`.
    pub fn finish(mut self) -> Result<(usize, usize), E> {
        self.w.align();
        self.drain()?;
        Ok((self.emitted, self.peak))
    }
}

/// MSB-first bit reader over a byte slice.
pub struct BitReader<'a> {
    data: &'a [u8],
    /// Absolute bit position.
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Reader starting at byte `offset`.
    pub fn at(data: &'a [u8], offset: usize) -> Self {
        BitReader { data, pos: offset * 8 }
    }

    /// Reads `width` bits MSB first.
    pub fn read(&mut self, width: u32) -> Option<u64> {
        if self.pos + width as usize > self.data.len() * 8 {
            return None;
        }
        let mut out = 0u64;
        for _ in 0..width {
            let byte = self.data[self.pos / 8];
            let bit = (byte >> (7 - (self.pos % 8))) & 1;
            out = (out << 1) | u64::from(bit);
            self.pos += 1;
        }
        Some(out)
    }

    /// Reads one flag bit.
    pub fn read_bit(&mut self) -> Option<bool> {
        self.read(1).map(|b| b != 0)
    }

    /// Skips to the next byte boundary.
    pub fn align(&mut self) {
        self.pos = self.pos.div_ceil(8) * 8;
    }

    /// Current byte position (aligned reads only).
    pub fn byte_pos(&self) -> usize {
        debug_assert_eq!(self.pos % 8, 0, "byte_pos on unaligned reader");
        self.pos / 8
    }

    /// Jumps to an absolute byte position.
    pub fn seek(&mut self, byte: usize) {
        self.pos = byte * 8;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn width_for_boundaries() {
        assert_eq!(width_for(0), 1);
        assert_eq!(width_for(1), 1);
        assert_eq!(width_for(2), 2);
        assert_eq!(width_for(3), 2);
        assert_eq!(width_for(4), 3);
        assert_eq!(width_for(255), 8);
        assert_eq!(width_for(256), 9);
    }

    #[test]
    fn roundtrip_various_widths() {
        let mut w = BitWriter::new();
        w.write(5, 3);
        w.write(1, 1);
        w.write(1000, 10);
        w.align();
        w.write(0xDEADBEEF, 32);
        let buf = w.finish();
        let mut r = BitReader::at(&buf, 0);
        assert_eq!(r.read(3), Some(5));
        assert_eq!(r.read(1), Some(1));
        assert_eq!(r.read(10), Some(1000));
        r.align();
        assert_eq!(r.read(32), Some(0xDEADBEEF));
    }

    #[test]
    fn bytes_and_alignment() {
        let mut w = BitWriter::new();
        w.write_bit(true);
        w.align();
        w.write_bytes(b"xy");
        let buf = w.finish();
        assert_eq!(buf.len(), 3);
        let mut r = BitReader::at(&buf, 0);
        assert_eq!(r.read_bit(), Some(true));
        r.align();
        assert_eq!(r.byte_pos(), 1);
    }

    #[test]
    fn out_of_bounds_read_is_none() {
        let buf = [0xFFu8];
        let mut r = BitReader::at(&buf, 0);
        assert_eq!(r.read(8), Some(0xFF));
        assert_eq!(r.read(1), None);
    }

    #[test]
    fn seek_repositions() {
        let buf = [1u8, 2, 3];
        let mut r = BitReader::at(&buf, 0);
        r.seek(2);
        assert_eq!(r.read(8), Some(3));
    }

    #[test]
    fn zero_width_read() {
        let buf = [0u8];
        let mut r = BitReader::at(&buf, 0);
        assert_eq!(r.read(0), Some(0));
    }

    /// One step of a bit-sink drive: a bit write, an alignment, or an
    /// aligned raw payload.
    #[derive(Clone, Debug)]
    enum Op {
        Write(u64, u32),
        Align,
        Bytes(Vec<u8>),
    }

    /// Runs `ops` through a [`BitWriter`] and a [`BitSink`], returning the
    /// writer's bytes, the sink's streamed bytes, its emit count, its
    /// `(total, peak)` and the longest run of bytes any one boundary
    /// added to its buffer (an unaligned run or a short payload).
    fn drive(ops: &[Op]) -> (Vec<u8>, Vec<u8>, usize, (usize, usize), usize) {
        let mut writer = BitWriter::new();
        let mut streamed = Vec::new();
        let mut chunks = 0usize;
        let mut sink = BitSink::new(|b: &[u8]| {
            chunks += 1;
            streamed.extend_from_slice(b);
            Ok::<(), std::convert::Infallible>(())
        });
        let (mut run_bits, mut segment) = (0u64, 0usize);
        for op in ops {
            match op {
                Op::Write(v, w) => {
                    writer.write(*v, *w);
                    sink.write(*v, *w);
                    run_bits += u64::from(*w);
                }
                Op::Align => {
                    writer.align();
                    sink.align().unwrap();
                }
                Op::Bytes(data) => {
                    writer.align();
                    writer.write_bytes(data);
                    sink.align().unwrap();
                    sink.write_bytes(data).unwrap();
                    if data.len() < SINK_FLUSH {
                        segment = segment.max(data.len());
                    }
                }
            }
            if !matches!(op, Op::Write(..)) {
                segment = segment.max(run_bits.div_ceil(8) as usize);
                run_bits = 0;
            }
        }
        segment = segment.max(run_bits.div_ceil(8) as usize);
        let out = sink.finish().unwrap();
        (writer.finish(), streamed, chunks, out, segment)
    }

    #[test]
    fn sink_matches_writer_byte_for_byte() {
        // The same write sequence through the buffering writer and the
        // streaming sink must produce identical bytes, across flush
        // boundaries, unaligned runs, and large aligned payloads.
        let mut ops = Vec::new();
        for i in 0..2000u64 {
            ops.push(Op::Write(i % 32, 5));
            if i % 7 == 0 {
                ops.push(Op::Align);
                ops.push(Op::Bytes(vec![i as u8, (i >> 8) as u8]));
            }
        }
        ops.push(Op::Bytes(vec![0xABu8; 3000]));
        ops.push(Op::Write(1, 1));
        ops.push(Op::Align);
        let (expect, streamed, chunks, (total, peak), _) = drive(&ops);
        assert_eq!(streamed, expect);
        assert_eq!(total, expect.len());
        assert!(chunks > 1, "must stream incrementally, not accumulate");
        assert!(peak <= super::SINK_FLUSH + 8, "sink buffered {peak} bytes");
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u8..4, any::<u64>(), 0u32..=64, 0usize..3 * SINK_FLUSH).prop_map(|(kind, v, w, n)| {
            match kind {
                0 | 1 => Op::Write(if w == 64 { v } else { v & ((1u64 << w) - 1) }, w),
                2 => Op::Align,
                // Half the payloads short, half straddling `SINK_FLUSH`.
                _ => Op::Bytes((0..if v % 2 == 0 { n % 64 } else { n }).map(|i| i as u8).collect()),
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..Default::default() })]

        /// Random write / align / write_bytes sequences: the sink streams
        /// exactly the writer's bytes. Peak bound: the buffer is drained at
        /// every boundary that finds `SINK_FLUSH` bytes or more, so it never
        /// holds more than `SINK_FLUSH - 1` bytes plus what one boundary
        /// adds — the longest unaligned run or short payload.
        #[test]
        fn sink_matches_writer_on_random_sequences(ops in prop::collection::vec(op(), 0..400)) {
            let (expect, streamed, _, (total, peak), segment) = drive(&ops);
            prop_assert_eq!(&streamed, &expect);
            prop_assert_eq!(total, expect.len());
            prop_assert!(
                peak < SINK_FLUSH + segment,
                "sink buffered {} bytes, bound {} + {}", peak, SINK_FLUSH, segment
            );
        }
    }
}
