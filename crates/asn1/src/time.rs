//! UTCTime and GeneralizedTime, plus the minimal calendar arithmetic the
//! validity-period analyses (Figure 3) need.

use crate::error::{Error, Result};
use std::fmt;

/// Which ASN.1 time type carried a value on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimeKind {
    /// UTCTime (`YYMMDDHHMMSSZ`, years 1950–2049).
    Utc,
    /// GeneralizedTime (`YYYYMMDDHHMMSSZ`).
    Generalized,
}

/// A calendar timestamp (proleptic Gregorian, always UTC).
///
/// Deliberately tiny: certificates need construction, parsing, ordering, and
/// day arithmetic — not a full datetime library.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DateTime {
    /// Full year, e.g. 2025.
    pub year: i32,
    /// Month 1–12.
    pub month: u8,
    /// Day of month 1–31.
    pub day: u8,
    /// Hour 0–23.
    pub hour: u8,
    /// Minute 0–59.
    pub minute: u8,
    /// Second 0–59 (leap seconds rejected, as in DER practice).
    pub second: u8,
}

#[inline]
fn is_leap(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

#[inline]
fn days_in_month(year: i32, month: u8) -> u8 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap(year) {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

impl DateTime {
    /// Construct a validated timestamp.
    #[inline]
    pub fn new(year: i32, month: u8, day: u8, hour: u8, minute: u8, second: u8) -> Result<DateTime> {
        if !(1..=12).contains(&month)
            || day == 0
            || day > days_in_month(year, month)
            || hour > 23
            || minute > 59
            || second > 59
        {
            return Err(Error::InvalidTime);
        }
        Ok(DateTime { year, month, day, hour, minute, second })
    }

    /// Midnight on the given date.
    pub fn date(year: i32, month: u8, day: u8) -> Result<DateTime> {
        DateTime::new(year, month, day, 0, 0, 0)
    }

    /// Days since the civil epoch 1970-01-01 (may be negative).
    ///
    /// Howard Hinnant's `days_from_civil` algorithm.
    pub fn days_from_epoch(&self) -> i64 {
        let y = if self.month <= 2 { self.year - 1 } else { self.year } as i64;
        let era = if y >= 0 { y } else { y - 399 } / 400;
        let yoe = y - era * 400;
        let m = self.month as i64;
        let d = self.day as i64;
        let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d - 1;
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
        era * 146097 + doe - 719468
    }

    /// Seconds since 1970-01-01T00:00:00Z.
    pub fn unix_seconds(&self) -> i64 {
        self.days_from_epoch() * 86400
            + self.hour as i64 * 3600
            + self.minute as i64 * 60
            + self.second as i64
    }

    /// Whole days from `self` to `other` (positive when `other` is later).
    pub fn days_until(&self, other: &DateTime) -> i64 {
        // Round toward the paper's convention: a 90-day cert issued at noon
        // and expiring at noon 90 days later counts as 90 days.
        (other.unix_seconds() - self.unix_seconds()) / 86400
    }

    /// `self` advanced by `days` (time of day preserved).
    pub fn plus_days(&self, days: i64) -> DateTime {
        let mut total = self.days_from_epoch() + days;
        // civil_from_days (inverse of days_from_civil).
        total += 719468;
        let era = if total >= 0 { total } else { total - 146096 } / 146097;
        let doe = total - era * 146097;
        let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
        let y = yoe + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
        let mp = (5 * doy + 2) / 153;
        let d = (doy - (153 * mp + 2) / 5 + 1) as u8;
        let m = if mp < 10 { mp + 3 } else { mp - 9 } as u8;
        let year = (if m <= 2 { y + 1 } else { y }) as i32;
        DateTime { year, month: m, day: d, ..*self }
    }

    /// Parse UTCTime content octets (`YYMMDDHHMMSSZ`).
    ///
    /// RFC 5280 requires seconds and the `Z` suffix; two-digit years map to
    /// 1950–2049.
    #[inline]
    pub fn from_utc_time(bytes: &[u8]) -> Result<DateTime> {
        let d: [i32; 12] = digits(bytes)?;
        let yy = (d[0] * 10 + d[1]) as i32;
        let year = if yy >= 50 { 1900 + yy } else { 2000 + yy };
        DateTime::new(
            year,
            (d[2] * 10 + d[3]) as u8,
            (d[4] * 10 + d[5]) as u8,
            (d[6] * 10 + d[7]) as u8,
            (d[8] * 10 + d[9]) as u8,
            (d[10] * 10 + d[11]) as u8,
        )
    }

    /// Parse GeneralizedTime content octets (`YYYYMMDDHHMMSSZ`).
    #[inline]
    pub fn from_generalized(bytes: &[u8]) -> Result<DateTime> {
        let d: [i32; 14] = digits(bytes)?;
        let year = (d[0] as i32) * 1000 + (d[1] as i32) * 100 + (d[2] as i32) * 10 + d[3] as i32;
        DateTime::new(
            year,
            (d[4] * 10 + d[5]) as u8,
            (d[6] * 10 + d[7]) as u8,
            (d[8] * 10 + d[9]) as u8,
            (d[10] * 10 + d[11]) as u8,
            (d[12] * 10 + d[13]) as u8,
        )
    }

    /// The `YYMMDDHHMMSSZ` form (caller must ensure year is 1950–2049).
    pub fn to_utc_time_string(&self) -> String {
        format!(
            "{:02}{:02}{:02}{:02}{:02}{:02}Z",
            self.year.rem_euclid(100),
            self.month,
            self.day,
            self.hour,
            self.minute,
            self.second
        )
    }

    /// The `YYYYMMDDHHMMSSZ` form.
    pub fn to_generalized_string(&self) -> String {
        format!(
            "{:04}{:02}{:02}{:02}{:02}{:02}Z",
            self.year, self.month, self.day, self.hour, self.minute, self.second
        )
    }
}

impl fmt::Display for DateTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:04}-{:02}-{:02}T{:02}:{:02}:{:02}Z",
            self.year, self.month, self.day, self.hour, self.minute, self.second
        )
    }
}

/// The `N` decimal digits of a `Z`-terminated time of exactly `N + 1`
/// octets, parsed into a fixed array (no heap buffer per time value).
fn digits<const N: usize>(bytes: &[u8]) -> Result<[i32; N]> {
    let body = match bytes.split_last() {
        Some((&b'Z', body)) if body.len() == N => body,
        _ => return Err(Error::InvalidTime),
    };
    let mut d = [0i32; N];
    for (slot, &b) in d.iter_mut().zip(body) {
        if !b.is_ascii_digit() {
            return Err(Error::InvalidTime);
        }
        *slot = i32::from(b - b'0');
    }
    Ok(d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utc_time_round_trip() {
        let dt = DateTime::new(2024, 3, 15, 12, 30, 45).unwrap();
        let s = dt.to_utc_time_string();
        assert_eq!(s, "240315123045Z");
        assert_eq!(DateTime::from_utc_time(s.as_bytes()).unwrap(), dt);
    }

    #[test]
    fn utc_time_century_pivot() {
        let d = DateTime::from_utc_time(b"500101000000Z").unwrap();
        assert_eq!(d.year, 1950);
        let d = DateTime::from_utc_time(b"491231235959Z").unwrap();
        assert_eq!(d.year, 2049);
    }

    #[test]
    fn generalized_round_trip() {
        let dt = DateTime::new(2051, 12, 31, 23, 59, 59).unwrap();
        let s = dt.to_generalized_string();
        assert_eq!(s, "20511231235959Z");
        assert_eq!(DateTime::from_generalized(s.as_bytes()).unwrap(), dt);
    }

    #[test]
    fn rejects_malformed_times() {
        assert!(DateTime::from_utc_time(b"2403151230Z").is_err()); // no seconds
        assert!(DateTime::from_utc_time(b"240315123045").is_err()); // no Z
        assert!(DateTime::from_utc_time(b"24031512304aZ").is_err());
        assert!(DateTime::from_utc_time(b"241315123045Z").is_err()); // month 13
        assert!(DateTime::from_utc_time(b"240230123045Z").is_err()); // Feb 30
        assert!(DateTime::from_generalized(b"20240315123045+0800".as_ref()).is_err());
    }

    #[test]
    fn leap_years() {
        assert!(DateTime::date(2024, 2, 29).is_ok());
        assert!(DateTime::date(2023, 2, 29).is_err());
        assert!(DateTime::date(2000, 2, 29).is_ok());
        assert!(DateTime::date(1900, 2, 29).is_err());
    }

    #[test]
    fn epoch_days() {
        assert_eq!(DateTime::date(1970, 1, 1).unwrap().days_from_epoch(), 0);
        assert_eq!(DateTime::date(1970, 1, 2).unwrap().days_from_epoch(), 1);
        assert_eq!(DateTime::date(1969, 12, 31).unwrap().days_from_epoch(), -1);
        assert_eq!(DateTime::date(2000, 3, 1).unwrap().days_from_epoch(), 11017);
    }

    #[test]
    fn plus_days_round_trip() {
        let start = DateTime::date(2023, 1, 31).unwrap();
        let later = start.plus_days(90);
        assert_eq!(start.days_until(&later), 90);
        assert_eq!(later, DateTime::date(2023, 5, 1).unwrap());
        let back = later.plus_days(-90);
        assert_eq!(back, start);
    }

    #[test]
    fn ordering() {
        let a = DateTime::new(2024, 1, 1, 0, 0, 0).unwrap();
        let b = DateTime::new(2024, 1, 1, 0, 0, 1).unwrap();
        assert!(a < b);
    }
}
