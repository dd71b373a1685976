module streamshare/bench

go 1.22

require streamshare v0.0.0

replace streamshare => ../
