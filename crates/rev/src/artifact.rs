//! `RBFNFRZ1` structure-stream codec for the frozen reversible modules.
//!
//! The frozen types keep their fields crate-private, so their artifact
//! encoding lives here and composes the layer-tree codec from
//! [`revbifpn_nn::artifact`]. Layout (all through the structure stream,
//! panels landing in aligned sections via the nn codec):
//!
//! ```text
//! sequence  := n_stages u32, stage*
//! stage     := tag u8 (0 = silo, 1 = blocks), payload
//! silo      := n_in u32, n_out u32, rows(down), rows(up)
//! blocks    := n_streams u32, (n_blocks u32, block*)*
//! block     := c_split u32, layer(f), layer(g)
//! rows      := n_rows u32, (n_cols u32, layer*)*
//! ```

use crate::freeze::{FrozenRevBlock, FrozenSequence, FrozenSilo, FrozenStage};
use revbifpn_nn::artifact::{decode_layer, encode_layer, ArtifactWriter, TreeReader};
use revbifpn_nn::freeze::FrozenLayer;
use std::io;

fn inv(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn put_rows(w: &mut ArtifactWriter, rows: &[Vec<FrozenLayer>]) -> io::Result<()> {
    w.put_u32(rows.len() as u32);
    for row in rows {
        w.put_u32(row.len() as u32);
        for layer in row {
            encode_layer(w, layer)?;
        }
    }
    Ok(())
}

fn get_rows(r: &mut TreeReader<'_>) -> io::Result<Vec<Vec<FrozenLayer>>> {
    let n = r.get_u32()? as usize;
    if n > 1 << 16 {
        return Err(inv("unreasonable row count"));
    }
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        let m = r.get_u32()? as usize;
        if m > 1 << 16 {
            return Err(inv("unreasonable row width"));
        }
        let mut row = Vec::with_capacity(m);
        for _ in 0..m {
            row.push(decode_layer(r)?);
        }
        rows.push(row);
    }
    Ok(rows)
}

/// Serializes a compiled [`FrozenSequence`] into `w`'s structure stream.
///
/// # Errors
///
/// Fails on a sequence containing an uncompiled conv.
pub fn encode_sequence(w: &mut ArtifactWriter, seq: &FrozenSequence) -> io::Result<()> {
    w.put_u32(seq.stages.len() as u32);
    for stage in &seq.stages {
        match stage {
            FrozenStage::Silo(s) => {
                w.put_u8(0);
                w.put_u32(s.n_in as u32);
                w.put_u32(s.n_out as u32);
                put_rows(w, &s.down)?;
                put_rows(w, &s.up)?;
            }
            FrozenStage::Blocks(streams) => {
                w.put_u8(1);
                w.put_u32(streams.len() as u32);
                for chain in streams {
                    w.put_u32(chain.len() as u32);
                    for b in chain {
                        w.put_u32(b.c_split as u32);
                        encode_layer(w, &b.silo.down[1][0])?;
                        encode_layer(w, &b.silo.up[0][0])?;
                    }
                }
            }
        }
    }
    Ok(())
}

/// Deserializes a [`FrozenSequence`] written by [`encode_sequence`]; panel
/// images reference the artifact buffer directly where possible.
pub fn decode_sequence(r: &mut TreeReader<'_>) -> io::Result<FrozenSequence> {
    let n = r.get_u32()? as usize;
    if n > 1 << 16 {
        return Err(inv("unreasonable stage count"));
    }
    let mut stages = Vec::with_capacity(n);
    for _ in 0..n {
        stages.push(match r.get_u8()? {
            0 => {
                let n_in = r.get_u32()? as usize;
                let n_out = r.get_u32()? as usize;
                let down = get_rows(r)?;
                let up = get_rows(r)?;
                // Down row `i` holds `D_ij` for `j < min(i, n_in)`, up row
                // `i` holds `U_ij` for `j > i`: any other width is a term
                // the forward would drop or an edge it has no stream for.
                let fits = (1..=n_out).contains(&n_in)
                    && n_out >= 2
                    && (down.len(), up.len()) == (n_out, n_out)
                    && down.iter().enumerate().all(|(i, row)| row.len() == i.min(n_in))
                    && up.iter().enumerate().all(|(i, row)| row.len() == n_out - 1 - i);
                if !fits {
                    return Err(inv("silo rows disagree with its stream counts"));
                }
                FrozenStage::Silo(FrozenSilo { n_in, n_out, down, up })
            }
            1 => {
                let n_streams = r.get_u32()? as usize;
                if n_streams > 1 << 16 {
                    return Err(inv("unreasonable stream count"));
                }
                let mut streams = Vec::with_capacity(n_streams);
                for _ in 0..n_streams {
                    let n_blocks = r.get_u32()? as usize;
                    if n_blocks > 1 << 16 {
                        return Err(inv("unreasonable block count"));
                    }
                    let mut chain = Vec::with_capacity(n_blocks);
                    for _ in 0..n_blocks {
                        let c_split = r.get_u32()? as usize;
                        if c_split == 0 {
                            return Err(inv("block split at channel 0"));
                        }
                        let f = decode_layer(r)?;
                        let g = decode_layer(r)?;
                        chain.push(FrozenRevBlock::new(c_split, f, g));
                    }
                    streams.push(chain);
                }
                FrozenStage::Blocks(streams)
            }
            _ => return Err(inv("bad frozen stage tag")),
        });
    }
    Ok(FrozenSequence::new(stages))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlockStage, RevBlock, RevSilo, ReversibleSequence};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use revbifpn_nn::artifact::ArtifactReader;
    use revbifpn_nn::layers::{MBConv, MBConvCfg};
    use revbifpn_nn::{FrozenTree, Layer};
    use revbifpn_tensor::{Shape, SharedBytes, Tensor};

    const C: [usize; 2] = [8, 12];

    fn sample_frozen_sequence() -> (FrozenSequence, Vec<Tensor>) {
        let mut rng = StdRng::seed_from_u64(40);
        let mut down = |j: usize, i: usize| -> Box<dyn Layer> {
            Box::new(MBConv::new(MBConvCfg::down(C[j], C[i], (i - j) as u32, 1.5), &mut rng))
                as Box<dyn Layer>
        };
        let mut rng2 = StdRng::seed_from_u64(41);
        let mut up = |j: usize, i: usize| -> Box<dyn Layer> {
            Box::new(MBConv::new(MBConvCfg::up(C[j], C[i], (j - i) as u32, 1.5), &mut rng2))
                as Box<dyn Layer>
        };
        let silo = RevSilo::new(1, 2, &mut down, &mut up);
        let mut rng3 = StdRng::seed_from_u64(42);
        let blocks = (0..2)
            .map(|i| {
                let half = C[i] / 2;
                let f = MBConv::new(MBConvCfg::same(half, 3, 1.5).plain(), &mut rng3);
                let g = MBConv::new(MBConvCfg::same(half, 3, 1.5).plain(), &mut rng3);
                vec![RevBlock::new(C[i], Box::new(f), Box::new(g))]
            })
            .collect();
        let mut seq = ReversibleSequence::new();
        seq.add(Box::new(silo));
        seq.add(Box::new(BlockStage::new(blocks)));
        let mut frozen = seq.freeze().unwrap();
        frozen.compile();
        let mut rng4 = StdRng::seed_from_u64(43);
        let x = Tensor::randn(Shape::new(1, C[0], 16, 16), 1.0, &mut rng4);
        (frozen, vec![x])
    }

    #[test]
    fn sequence_roundtrips_bitwise() {
        let (frozen, xs) = sample_frozen_sequence();
        let want = frozen.forward(xs.clone());
        let mut w = ArtifactWriter::new(0);
        encode_sequence(&mut w, &frozen).unwrap();
        let r = ArtifactReader::from_bytes(SharedBytes::from_vec(w.finish()), false).unwrap();
        r.verify_sections().unwrap();
        let mut cur = r.cursor();
        let decoded = decode_sequence(&mut cur).unwrap();
        assert_eq!(cur.remaining(), 0);
        let got = decoded.forward(xs);
        assert_eq!(got.len(), want.len());
        for (g, w_) in got.iter().zip(&want) {
            assert_eq!(g, w_, "decoded sequence forward must be bitwise equal");
        }
    }

    fn roundtrip(stage: FrozenStage) -> io::Result<FrozenSequence> {
        let mut w = ArtifactWriter::new(0);
        encode_sequence(&mut w, &FrozenSequence::new(vec![stage])).unwrap();
        let r = ArtifactReader::from_bytes(SharedBytes::from_vec(w.finish()), false).unwrap();
        decode_sequence(&mut r.cursor())
    }

    #[test]
    fn decode_rejects_silo_geometry_the_forward_cannot_run() {
        let row = |n: usize| (0..n).map(|_| FrozenLayer::Identity).collect::<Vec<_>>();
        let rows = |widths: &[usize]| widths.iter().map(|&n| row(n)).collect::<Vec<_>>();
        let silo = |n_in, n_out, down: &[usize], up: &[usize]| {
            FrozenStage::Silo(FrozenSilo { n_in, n_out, down: rows(down), up: rows(up) })
        };
        assert!(roundtrip(silo(2, 3, &[0, 1, 2], &[2, 1, 0])).is_ok());
        let bad = [
            ("no input stream", silo(0, 2, &[0, 0], &[1, 0])),
            ("more inputs than outputs", silo(3, 2, &[0, 1], &[1, 0])),
            ("one stream", silo(1, 1, &[0], &[0])),
            ("a down row one layer short", silo(2, 3, &[0, 1, 1], &[2, 1, 0])),
            ("a down row too wide", silo(1, 2, &[0, 2], &[1, 0])),
            ("an up row one layer short", silo(2, 3, &[0, 1, 2], &[1, 1, 0])),
            ("an up row too wide", silo(2, 2, &[0, 1], &[1, 1])),
            ("a block split at 0", {
                let block = FrozenRevBlock::new(0, FrozenLayer::Identity, FrozenLayer::Identity);
                FrozenStage::Blocks(vec![vec![block]])
            }),
        ];
        for (what, stage) in bad {
            let err = roundtrip(stage).err().unwrap_or_else(|| panic!("{what}: decoded"));
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
        }
    }
}
