//! Seeded defect fixture: a lock inversion and a guard held across
//! blocking I/O, both hidden behind helper calls.
//!
//! `transfer` holds `ledger` and calls `a`, which calls `b`, which
//! takes `audit`; `reconcile` takes the two locks in the opposite
//! order. `publish` holds `ledger` across `send`, which writes to a
//! socket. `ams-check conc` must report both, naming the call chain
//! (`transfer → a → b`, `publish → send`). Not compiled into any crate
//! — read by the binary smoke test only.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Mutex;

pub struct Bank {
    ledger: Mutex<Vec<i64>>,
    audit: Mutex<Vec<String>>,
}

pub fn transfer(bank: &Bank, amount: i64) {
    let mut ledger = bank.ledger.lock().unwrap();
    ledger.push(amount);
    a(bank);
}

fn a(bank: &Bank) {
    b(bank);
}

fn b(bank: &Bank) {
    bank.audit.lock().unwrap().push("transfer".to_string());
}

pub fn reconcile(bank: &Bank) {
    let mut audit = bank.audit.lock().unwrap();
    let ledger = bank.ledger.lock().unwrap();
    audit.push(format!("reconcile {} entries", ledger.len()));
}

pub fn publish(bank: &Bank, stream: &mut TcpStream) -> std::io::Result<()> {
    let ledger = bank.ledger.lock().unwrap();
    send(stream, ledger.len())
}

fn send(stream: &mut TcpStream, entries: usize) -> std::io::Result<()> {
    stream.write_all(&entries.to_le_bytes())
}
