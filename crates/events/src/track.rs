//! Track association: stitch per-frame detections into object tracks.
//!
//! Detections arrive in a shared coordinate frame (the mini-panorama's
//! anchor frame, courtesy of the coverage branch's homographies), so
//! association is plain nearest-neighbour gating with a miss allowance.

use vs_fault::{tap, FuncId, OpClass, SimError};
use vs_linalg::Vec2;

/// One tracked object.
#[derive(Debug, Clone, PartialEq)]
pub struct Track {
    /// Stable id, assigned in creation order.
    pub id: usize,
    /// Observed positions as `(frame_index, position)` pairs.
    pub points: Vec<(usize, Vec2)>,
}

impl Track {
    /// Last observed position.
    pub fn last_position(&self) -> Vec2 {
        self.points.last().map(|&(_, p)| p).unwrap_or(Vec2::ZERO)
    }

    /// Frame of the last observation.
    pub fn last_frame(&self) -> usize {
        self.points.last().map(|&(f, _)| f).unwrap_or(0)
    }

    /// Net displacement from first to last observation.
    pub fn displacement(&self) -> f64 {
        match (self.points.first(), self.points.last()) {
            (Some(&(_, a)), Some(&(_, b))) => a.distance(b),
            _ => 0.0,
        }
    }
}

/// Tracker parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackerConfig {
    /// Maximum distance between a track's last position and a detection
    /// for association.
    pub gate_radius: f64,
    /// Frames a track may go unobserved before it is closed.
    pub max_misses: usize,
    /// Minimum observations for a finished track to be reported.
    pub min_length: usize,
}

impl Default for TrackerConfig {
    fn default() -> Self {
        TrackerConfig {
            gate_radius: 18.0,
            max_misses: 2,
            min_length: 3,
        }
    }
}

/// Online nearest-neighbour tracker.
#[derive(Debug, Clone)]
pub struct Tracker {
    config: TrackerConfig,
    active: Vec<Track>,
    finished: Vec<Track>,
    next_id: usize,
}

impl Tracker {
    /// A tracker with the given configuration.
    pub fn new(config: TrackerConfig) -> Self {
        Tracker {
            config,
            active: Vec::new(),
            finished: Vec::new(),
            next_id: 0,
        }
    }

    /// Feed the detections of one frame (positions in the shared
    /// coordinate frame). Frames must be fed in increasing order.
    pub fn observe(&mut self, frame: usize, detections: &[Vec2]) {
        let mut claimed = vec![false; detections.len()];
        // Greedy nearest-neighbour: tracks claim detections closest-first.
        let mut order: Vec<usize> = (0..self.active.len()).collect();
        order.sort_by_key(|&t| self.active[t].id);
        for t in order {
            let last = self.active[t].last_position();
            let mut best: Option<(usize, f64)> = None;
            for (d, &p) in detections.iter().enumerate() {
                if claimed[d] {
                    continue;
                }
                let dist = last.distance(p);
                if dist <= self.config.gate_radius && best.is_none_or(|(_, bd)| dist < bd) {
                    best = Some((d, dist));
                }
            }
            if let Some((d, _)) = best {
                claimed[d] = true;
                self.active[t].points.push((frame, detections[d]));
            }
        }
        // Unclaimed detections start new tracks.
        for (d, &p) in detections.iter().enumerate() {
            if !claimed[d] {
                self.active.push(Track {
                    id: self.next_id,
                    points: vec![(frame, p)],
                });
                self.next_id += 1;
            }
        }
        // Retire tracks that have gone stale.
        let max_misses = self.config.max_misses;
        let min_length = self.config.min_length;
        let mut still_active = Vec::new();
        for t in self.active.drain(..) {
            if frame.saturating_sub(t.last_frame()) > max_misses {
                if t.points.len() >= min_length {
                    self.finished.push(t);
                }
            } else {
                still_active.push(t);
            }
        }
        self.active = still_active;
    }

    /// Instrumented variant of [`Tracker::observe`] for use inside
    /// fault-injected workloads.
    ///
    /// # Errors
    ///
    /// Propagates hang-budget exhaustion.
    pub fn observe_instrumented(
        &mut self,
        frame: usize,
        detections: &[Vec2],
    ) -> Result<(), SimError> {
        let _f = tap::scope(FuncId::TrackObjects);
        tap::work(
            OpClass::Float,
            (self.active.len() * detections.len()) as u64 * 4,
        )?;
        tap::work(OpClass::Control, detections.len() as u64 + 4)?;
        self.observe(frame, detections);
        Ok(())
    }

    /// Finish tracking: close all active tracks and return every track
    /// meeting the minimum length, ordered by id.
    pub fn into_tracks(mut self) -> Vec<Track> {
        for t in self.active.drain(..) {
            if t.points.len() >= self.config.min_length {
                self.finished.push(t);
            }
        }
        self.finished.sort_by_key(|t| t.id);
        self.finished
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TrackerConfig {
        TrackerConfig {
            gate_radius: 10.0,
            max_misses: 1,
            min_length: 3,
        }
    }

    #[test]
    fn single_moving_object_yields_one_track() {
        let mut tr = Tracker::new(cfg());
        for f in 0..6 {
            tr.observe(f, &[Vec2::new(f as f64 * 4.0, 10.0)]);
        }
        let tracks = tr.into_tracks();
        assert_eq!(tracks.len(), 1);
        assert_eq!(tracks[0].points.len(), 6);
        assert!((tracks[0].displacement() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn two_separated_objects_yield_two_tracks() {
        let mut tr = Tracker::new(cfg());
        for f in 0..5 {
            tr.observe(
                f,
                &[
                    Vec2::new(f as f64 * 3.0, 5.0),
                    Vec2::new(100.0 - f as f64 * 3.0, 80.0),
                ],
            );
        }
        let tracks = tr.into_tracks();
        assert_eq!(tracks.len(), 2);
        assert!(tracks.iter().all(|t| t.points.len() == 5));
    }

    #[test]
    fn jump_beyond_gate_starts_new_track() {
        let mut tr = Tracker::new(cfg());
        for f in 0..3 {
            tr.observe(f, &[Vec2::new(f as f64, 0.0)]);
        }
        for f in 3..6 {
            tr.observe(f, &[Vec2::new(500.0 + f as f64, 0.0)]);
        }
        let tracks = tr.into_tracks();
        assert_eq!(tracks.len(), 2, "teleport must split tracks");
    }

    #[test]
    fn short_tracks_are_dropped() {
        let mut tr = Tracker::new(cfg());
        tr.observe(0, &[Vec2::new(1.0, 1.0)]);
        tr.observe(1, &[Vec2::new(2.0, 1.0)]);
        // Nothing afterwards: track length 2 < min_length 3.
        for f in 2..6 {
            tr.observe(f, &[]);
        }
        assert!(tr.into_tracks().is_empty());
    }

    #[test]
    fn one_missed_frame_is_tolerated() {
        let mut tr = Tracker::new(cfg());
        tr.observe(0, &[Vec2::new(0.0, 0.0)]);
        tr.observe(1, &[]); // occlusion
        tr.observe(2, &[Vec2::new(4.0, 0.0)]);
        tr.observe(3, &[Vec2::new(8.0, 0.0)]);
        let tracks = tr.into_tracks();
        assert_eq!(tracks.len(), 1);
        assert_eq!(tracks[0].points.len(), 3);
    }

    #[test]
    fn crossing_objects_keep_distinct_ids() {
        // Two objects approach and pass; greedy NN with a tight gate
        // keeps both tracks alive (possibly swapping, but two tracks).
        let mut tr = Tracker::new(cfg());
        for f in 0..8 {
            let a = Vec2::new(f as f64 * 5.0, 20.0);
            let b = Vec2::new(35.0 - f as f64 * 5.0, 20.0);
            tr.observe(f, &[a, b]);
        }
        let tracks = tr.into_tracks();
        assert_eq!(tracks.len(), 2);
    }

    #[test]
    fn instrumented_observe_matches_plain() {
        let mut a = Tracker::new(cfg());
        let mut b = Tracker::new(cfg());
        for f in 0..5 {
            let dets = [Vec2::new(f as f64 * 2.0, 3.0)];
            a.observe(f, &dets);
            b.observe_instrumented(f, &dets).unwrap();
        }
        assert_eq!(a.into_tracks(), b.into_tracks());
    }
}
