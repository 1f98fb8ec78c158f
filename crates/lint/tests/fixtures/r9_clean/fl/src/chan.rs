// Fixture: bounded constructors pass, and test code may use unbounded
// queues freely.

pub fn backpressured_pair() -> (Sender<u8>, Receiver<u8>) {
    let (tx, rx) = bounded(16);
    (tx, rx)
}

pub fn sync_pair() -> (std::sync::mpsc::SyncSender<u8>, std::sync::mpsc::Receiver<u8>) {
    std::sync::mpsc::sync_channel(4)
}

#[cfg(test)]
mod tests {
    #[test]
    fn harness_may_use_unbounded() {
        let (_tx, _rx) = unbounded();
        let (_a, _b) = std::sync::mpsc::channel();
    }
}
