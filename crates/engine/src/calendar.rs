//! Civil date/time conversion for simulation timestamps.
//!
//! Two of the paper's analyses need wall-clock structure on top of raw
//! simulation time: Table VIII groups NCAR transfers by calendar *year*
//! (2009/2010/2011, tracking the frost cluster shrinking from 3 to 1
//! servers), and Fig. 6 groups NERSC–ORNL test transfers by *time of
//! day* (the 2 AM and 8 AM cron runs). The simulation epoch is mapped
//! to a real UTC instant and converted with the standard
//! days-from-civil / civil-from-days algorithms (Howard Hinnant's
//! `chrono`-compatible formulation), so leap years are handled exactly.

/// Unix timestamp (seconds) of 2009-01-01T00:00:00Z, the default
/// simulation epoch: the NCAR–NICS dataset spans 2009–2011.
pub const EPOCH_2009_UTC: i64 = 1_230_768_000;

/// A broken-down UTC date and time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CivilDateTime {
    /// Calendar year, e.g. 2010.
    pub year: i32,
    /// Month 1–12.
    pub month: u32,
    /// Day of month 1–31.
    pub day: u32,
    /// Hour 0–23.
    pub hour: u32,
    /// Minute 0–59.
    pub minute: u32,
    /// Second 0–59.
    pub second: u32,
}

/// Civil date for days since 1970-01-01 (proleptic Gregorian).
pub fn civil_from_days(z: i64) -> (i32, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    ((y + i64::from(m <= 2)) as i32, m, d)
}

impl CivilDateTime {
    /// Converts a unix timestamp (seconds, UTC) to civil time.
    pub fn from_unix(ts: i64) -> CivilDateTime {
        let days = ts.div_euclid(86_400);
        let secs = ts.rem_euclid(86_400);
        let (year, month, day) = civil_from_days(days);
        CivilDateTime {
            year,
            month,
            day,
            hour: (secs / 3600) as u32,
            minute: (secs % 3600 / 60) as u32,
            second: (secs % 60) as u32,
        }
    }

    /// ISO 8601 rendering (`2010-09-14T02:00:00Z`), the format the log
    /// writer uses for start times.
    pub fn iso8601(self) -> String {
        format!(
            "{:04}-{:02}-{:02}T{:02}:{:02}:{:02}Z",
            self.year, self.month, self.day, self.hour, self.minute, self.second
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Days since 1970-01-01 for a civil date (valid for all practical
    /// years; proleptic Gregorian).
    fn days_from_civil(year: i32, month: u32, day: u32) -> i64 {
        debug_assert!((1..=12).contains(&month));
        debug_assert!((1..=31).contains(&day));
        let y = i64::from(year) - i64::from(month <= 2);
        let era = if y >= 0 { y } else { y - 399 } / 400;
        let yoe = y - era * 400; // [0, 399]
        let mp = i64::from((month + 9) % 12); // [0, 11], March = 0
        let doy = (153 * mp + 2) / 5 + i64::from(day) - 1; // [0, 365]
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
        era * 146_097 + doe - 719_468
    }

    #[test]
    fn epoch_2009_is_jan_first() {
        let dt = CivilDateTime::from_unix(EPOCH_2009_UTC);
        assert_eq!((dt.year, dt.month, dt.day), (2009, 1, 1));
        assert_eq!((dt.hour, dt.minute, dt.second), (0, 0, 0));
    }

    #[test]
    fn unix_epoch_origin() {
        assert_eq!(days_from_civil(1970, 1, 1), 0);
        assert_eq!(civil_from_days(0), (1970, 1, 1));
    }

    #[test]
    fn known_dates() {
        // 2012-04-02 (the SLAC 2–3 AM burst day) = unix 1333324800
        assert_eq!(days_from_civil(2012, 4, 2) * 86_400, 1_333_324_800);
        let dt = CivilDateTime::from_unix(1_333_324_800 + 2 * 3600 + 30 * 60);
        assert_eq!((dt.year, dt.month, dt.day, dt.hour, dt.minute), (2012, 4, 2, 2, 30));
    }

    #[test]
    fn leap_year_handling() {
        // 2012 is a leap year: Feb 29 exists.
        let feb29 = days_from_civil(2012, 2, 29);
        assert_eq!(civil_from_days(feb29), (2012, 2, 29));
        assert_eq!(civil_from_days(feb29 + 1), (2012, 3, 1));
        // 2100 is not a leap year.
        let feb28_2100 = days_from_civil(2100, 2, 28);
        assert_eq!(civil_from_days(feb28_2100 + 1), (2100, 3, 1));
    }

    #[test]
    fn sim_time_mapping() {
        // Day 2 of the simulation epoch, 02:00.
        let dt = CivilDateTime::from_unix(EPOCH_2009_UTC + 86_400 + 2 * 3600);
        assert_eq!((dt.year, dt.month, dt.day, dt.hour), (2009, 1, 2, 2));
    }

    #[test]
    fn iso8601_round_trip() {
        let dt = CivilDateTime { year: 2010, month: 9, day: 14, hour: 2, minute: 0, second: 59 };
        let ts = days_from_civil(2010, 9, 14) * 86_400 + 2 * 3600 + 59;
        assert_eq!(CivilDateTime::from_unix(ts), dt);
        assert_eq!(dt.iso8601(), "2010-09-14T02:00:59Z");
    }

    proptest! {
        /// days_from_civil and civil_from_days are inverses over a wide
        /// span of days.
        #[test]
        fn prop_day_round_trip(z in -200_000i64..200_000) {
            let (y, m, d) = civil_from_days(z);
            prop_assert_eq!(days_from_civil(y, m, d), z);
        }

        /// Unix second round trip through CivilDateTime's fields.
        #[test]
        fn prop_unix_round_trip(ts in 0i64..2_000_000_000) {
            let dt = CivilDateTime::from_unix(ts);
            let back = days_from_civil(dt.year, dt.month, dt.day) * 86_400
                + i64::from(dt.hour) * 3600
                + i64::from(dt.minute) * 60
                + i64::from(dt.second);
            prop_assert_eq!(back, ts);
        }
    }
}
