module swisstm

// Built and measured with go1.24 (CI); kept below 1.23, which makes time.Timer channels synchronous under coalesce's MaxWait Reset loop and wal's group-fsync deadline (ROADMAP item 2).
go 1.22
