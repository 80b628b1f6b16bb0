//! Bit-level I/O for the skip-index encodings.
//!
//! Node records are byte-aligned (the paper: "In all these methods, the
//! metadata need be aligned on a byte frontier"), so writers expose an
//! explicit [`BitWriter::align`] and readers track their byte position for
//! subtree skips.

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

    /// Writes the `width` low bits of `value`, MSB first.
    pub fn write(&mut self, value: u64, width: u32) {
        debug_assert!(width <= 64);
        debug_assert!(
            width == 64 || value < (1u64 << width),
            "value {value} overflows {width} bits"
        );
        for i in (0..width).rev() {
            let bit = (value >> i) & 1;
            if self.used == 0 {
                self.bytes.push(0);
            }
            let last = self.bytes.last_mut().expect("pushed");
            *last |= (bit as u8) << (7 - self.used);
            self.used = (self.used + 1) % 8;
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

/// Fallible bit-sink interface: the one surface shared by the in-memory
/// [`BitWriter`] (infallible) and the streaming [`BitSink`] (whose
/// downstream consumer — an encryptor, a socket, a file — may fail).
/// Encoders written against this trait produce byte-identical output on
/// both, which is what pins the streamed protect path to the in-memory
/// oracle.
pub trait BitOut {
    /// Downstream failure type (`Infallible` for [`BitWriter`]).
    type Error;

    /// Writes the `width` low bits of `value`, MSB first.
    fn write(&mut self, value: u64, width: u32) -> Result<(), Self::Error>;

    /// Writes a single flag bit.
    fn write_bit(&mut self, bit: bool) -> Result<(), Self::Error> {
        self.write(bit as u64, 1)
    }

    /// Pads with zero bits to the next byte boundary.
    fn align(&mut self) -> Result<(), Self::Error>;

    /// Appends raw bytes (must be aligned).
    fn write_bytes(&mut self, data: &[u8]) -> Result<(), Self::Error>;
}

impl BitOut for BitWriter {
    type Error = core::convert::Infallible;

    fn write(&mut self, value: u64, width: u32) -> Result<(), Self::Error> {
        BitWriter::write(self, value, width);
        Ok(())
    }

    fn align(&mut self) -> Result<(), Self::Error> {
        BitWriter::align(self);
        Ok(())
    }

    fn write_bytes(&mut self, data: &[u8]) -> Result<(), Self::Error> {
        BitWriter::write_bytes(self, data);
        Ok(())
    }
}

/// How many buffered bytes a [`BitSink`] accumulates before handing them
/// downstream. Small enough that the encoder's resident state stays far
/// below any chunk, large enough to amortize the callback.
const SINK_FLUSH: usize = 1024;

/// MSB-first bit writer that streams completed bytes to a consumer
/// instead of accumulating the whole output — the encoder half of the
/// one-pass protect path. Only the trailing partial byte (plus at most
/// `SINK_FLUSH` completed ones) is ever resident.
pub struct BitSink<F, E>
where
    F: FnMut(&[u8]) -> Result<(), E>,
{
    bytes: Vec<u8>,
    /// Bits already used in the last byte (0 = aligned).
    used: u32,
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
        BitSink { bytes: Vec::new(), used: 0, emit, emitted: 0, peak: 0 }
    }

    /// Hands every *completed* byte downstream (the partial last byte, if
    /// any, stays: later bit writes still mutate it).
    fn drain(&mut self) -> Result<(), E> {
        self.peak = self.peak.max(self.bytes.len());
        let keep = usize::from(self.used > 0);
        let complete = self.bytes.len() - keep;
        if complete > 0 {
            (self.emit)(&self.bytes[..complete])?;
            self.emitted += complete;
            self.bytes.copy_within(complete.., 0);
            self.bytes.truncate(keep);
        }
        Ok(())
    }

    fn maybe_drain(&mut self) -> Result<(), E> {
        self.peak = self.peak.max(self.bytes.len());
        if self.bytes.len() >= SINK_FLUSH {
            self.drain()?;
        }
        Ok(())
    }

    /// Finishes: flushes everything (including a final partial byte,
    /// zero-padded by construction) and returns `(total_bytes, peak_buffered)`.
    pub fn finish(mut self) -> Result<(usize, usize), E> {
        self.used = 0;
        self.drain()?;
        Ok((self.emitted, self.peak))
    }
}

impl<F, E> BitOut for BitSink<F, E>
where
    F: FnMut(&[u8]) -> Result<(), E>,
{
    type Error = E;

    fn write(&mut self, value: u64, width: u32) -> Result<(), E> {
        debug_assert!(width <= 64);
        debug_assert!(
            width == 64 || value < (1u64 << width),
            "value {value} overflows {width} bits"
        );
        for i in (0..width).rev() {
            let bit = (value >> i) & 1;
            if self.used == 0 {
                self.bytes.push(0);
            }
            let last = self.bytes.last_mut().expect("pushed");
            *last |= (bit as u8) << (7 - self.used);
            self.used = (self.used + 1) % 8;
        }
        self.maybe_drain()
    }

    fn align(&mut self) -> Result<(), E> {
        self.used = 0;
        Ok(())
    }

    fn write_bytes(&mut self, data: &[u8]) -> Result<(), E> {
        assert_eq!(self.used, 0, "write_bytes requires byte alignment");
        // Large aligned payloads (text bodies) bypass the buffer: drain
        // what is pending, then forward the slice directly.
        if data.len() >= SINK_FLUSH {
            self.drain()?;
            debug_assert!(self.bytes.is_empty());
            (self.emit)(data)?;
            self.emitted += data.len();
            return Ok(());
        }
        self.bytes.extend_from_slice(data);
        self.maybe_drain()
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

    #[test]
    fn sink_matches_writer_byte_for_byte() {
        // The same write sequence through the buffering writer and the
        // streaming sink must produce identical bytes, across flush
        // boundaries, unaligned runs, and large aligned payloads.
        let big = vec![0xABu8; 3000];
        let drive = |w: &mut dyn BitOut<Error = std::convert::Infallible>| {
            for i in 0..2000u64 {
                w.write(i % 32, 5).unwrap();
                if i % 7 == 0 {
                    w.align().unwrap();
                    w.write_bytes(&[i as u8, (i >> 8) as u8]).unwrap();
                }
            }
            w.align().unwrap();
            w.write_bytes(&big).unwrap();
            w.write_bit(true).unwrap();
            w.align().unwrap();
        };
        let mut writer = BitWriter::new();
        drive(&mut writer);
        let expect = writer.finish();

        let mut streamed = Vec::new();
        let mut chunks = 0usize;
        let mut sink = BitSink::new(|b: &[u8]| {
            chunks += 1;
            streamed.extend_from_slice(b);
            Ok::<(), std::convert::Infallible>(())
        });
        // `dyn` dispatch needs Infallible on both; the sink's E is
        // Infallible here so drive it directly instead.
        for i in 0..2000u64 {
            sink.write(i % 32, 5).unwrap();
            if i % 7 == 0 {
                sink.align().unwrap();
                sink.write_bytes(&[i as u8, (i >> 8) as u8]).unwrap();
            }
        }
        sink.align().unwrap();
        sink.write_bytes(&big).unwrap();
        sink.write_bit(true).unwrap();
        sink.align().unwrap();
        let (total, peak) = sink.finish().unwrap();
        assert_eq!(streamed, expect);
        assert_eq!(total, expect.len());
        assert!(chunks > 1, "must stream incrementally, not accumulate");
        assert!(peak <= super::SINK_FLUSH + 8, "sink buffered {peak} bytes");
    }
}
