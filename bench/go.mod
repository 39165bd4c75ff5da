module netfi/bench

go 1.22

require netfi v0.0.0

replace netfi => ../
