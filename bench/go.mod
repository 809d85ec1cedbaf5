module pushpull/bench

go 1.22

require pushpull v0.0.0

replace pushpull => ../
