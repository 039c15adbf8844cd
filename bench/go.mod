module cwc/bench

go 1.22

require cwc v0.0.0

replace cwc => ../
