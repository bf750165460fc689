//! Output digests and the conservation check of serving runs.

use ncsw_serve::ServeOutcome;

/// 64-bit FNV-1a over a stream of words: stable across platforms,
/// toolchains and runs, unlike `std`'s default hasher.
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }

    /// Completed ids with completion instant and worker, then shed ids
    /// with their cause, each in id order.
    pub fn outcome(&mut self, o: &ServeOutcome) {
        let mut done: Vec<_> =
            o.completed.iter().map(|r| (r.id, r.completed.nanos(), r.worker)).collect();
        done.sort_unstable();
        self.u64(done.len() as u64);
        for (id, at, worker) in done {
            self.u64(id);
            self.u64(at);
            self.u64(worker as u64);
        }
        let mut shed: Vec<_> = o.shed.iter().map(|s| (s.id, s.cause.name())).collect();
        shed.sort_unstable();
        self.u64(shed.len() as u64);
        for (id, cause) in shed {
            self.u64(id);
            self.bytes(cause.as_bytes());
        }
    }
}

/// Every offered request either completed or was shed, exactly once.
pub fn check_conserved(o: &ServeOutcome, offered: usize) -> Result<(), String> {
    let (done, shed) = (o.completed.len(), o.shed.len());
    if done + shed != offered {
        return Err(format!("completed {done} + shed {shed} != offered {offered}"));
    }
    let mut ids: Vec<u64> =
        o.completed.iter().map(|r| r.id).chain(o.shed.iter().map(|s| s.id)).collect();
    ids.sort_unstable();
    if let Some(w) = ids.windows(2).find(|w| w[0] == w[1]) {
        return Err(format!("request {} finished twice", w[0]));
    }
    if let Some(r) = o.completed.iter().find(|r| r.completed < r.arrival) {
        return Err(format!("request {} completed before it arrived", r.id));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        let hex = |s: &str| {
            let mut d = Digest::default();
            d.bytes(s.as_bytes());
            d.hex()
        };
        assert_eq!(hex(""), "cbf29ce484222325");
        assert_eq!(hex("a"), "af63dc4c8601ec8c");
        assert_eq!(hex("foobar"), "85944171f73967e8");
    }
}
